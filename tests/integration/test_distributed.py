"""Multi-machine bench on one box: --distribute, the shared cache plane,
straggler retry, and the 429 backpressure retry policy.

The acceptance contract of the distributed cache plane: ``repro bench
--distribute`` over two real ``repro serve`` instances sharing one
``RemoteStorage`` cache produces records bit-identical (up to wall time
and cache-hit counters) to a single-box ``repro bench`` — including when
one instance is dead and its shard fails over — and the shared store ends
up holding the fleet's memo snapshot, visible to ``repro cache stats
--cache-url``.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.engine import MemoryStorage, ResultCache
from repro.service import AnalysisServer, WorkerPool
from repro.service.client import ServiceClient, ServiceError, ServiceHTTPError
from repro.service.remote import RemoteStorage


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _semantic(record):
    """Everything of a result record except the run-dependent fields."""
    return {
        key: value
        for key, value in record.items()
        if key not in ("wall_time", "cache_hit")
    }


class _StubPool:
    """Enough pool for a cache-only AnalysisServer (no worker forks)."""

    workers = 1
    cache = None

    def stats_dict(self):
        return {}

    def busy_workers(self):
        return 0

    def close(self):
        pass


def _start_server(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.address
    url = f"http://{host}:{port}"
    _wait_until_serving(url)
    return thread, url


def _wait_until_serving(url, deadline=30.0):
    started = time.monotonic()
    while True:
        try:
            with ServiceClient(url, timeout=2.0) as client:
                client.healthz()
            return
        except ServiceError:
            if time.monotonic() - started > deadline:
                raise
            time.sleep(0.05)


def _stop_server(server, thread):
    server.shutdown()
    server.close()
    thread.join(10)


def _free_port():
    """A port that was just free — nothing listens on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture(scope="class")
def cache_host():
    """A cache-plane-only service backed by one in-memory store."""
    server = AnalysisServer(
        _StubPool(), port=0, cache=ResultCache(storage=MemoryStorage())
    )
    thread, url = _start_server(server)
    yield url
    _stop_server(server, thread)


class TestDistributedBench:
    def test_distribute_is_bit_identical_and_shares_the_cache_plane(
        self, cache_host, capsys
    ):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "table2", "--no-cache", "--json"
        )
        assert code == 0
        local = json.loads(out)

        fleet = []
        try:
            for _ in range(2):
                pool = WorkerPool(
                    workers=1, cache=ResultCache(storage=RemoteStorage(cache_host))
                )
                server = AnalysisServer(pool, port=0)
                thread, url = _start_server(server)
                fleet.append((server, thread, url))
            hosts = ",".join(url.removeprefix("http://") for _, _, url in fleet)
            code, out, err = run_cli(
                capsys, "bench", "--suite", "table2", "--distribute", hosts, "--json"
            )
            assert code == 0, err
            document = json.loads(out)
            assert document["engine"] == "distribute"
            assert all(report["ok"] for report in document["shards"])
            assert [_semantic(r) for r in document["results"]] == [
                _semantic(r) for r in local["results"]
            ]
            # The fleet wrote its results through the shared remote store.
            shared = RemoteStorage(cache_host)
            assert list(shared.names()), "no results reached the cache plane"
        finally:
            for server, thread, _ in fleet:
                _stop_server(server, thread)

        # Worker shutdown persisted the fleet's memo snapshot to the shared
        # store (the multi-machine warm start PR 5 left open)...
        from repro.polyhedra.cache import SNAPSHOT_NAME

        snapshot = RemoteStorage(cache_host).namespace("memo").read(SNAPSHOT_NAME)
        assert snapshot is not None
        # ...and `repro cache stats --cache-url` sees the same store.
        code, out, _ = run_cli(capsys, "cache", "stats", "--cache-url", cache_host)
        assert code == 0
        assert cache_host in out
        assert "polyhedra memo snapshot:" in out
        assert "memo snapshot: none" not in out

    def test_dead_host_shards_are_retried_on_the_survivor(
        self, cache_host, capsys
    ):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "table2", "--no-cache", "--json"
        )
        assert code == 0
        local = json.loads(out)

        pool = WorkerPool(
            workers=1, cache=ResultCache(storage=RemoteStorage(cache_host))
        )
        server = AnalysisServer(pool, port=0)
        thread, live_url = _start_server(server)
        dead = f"127.0.0.1:{_free_port()}"
        # Pin the dead host to a shard slot the suite actually hashes into,
        # so the coordinator must observe the failure and fail over.
        from repro.cli import suite_tasks
        from repro.engine.shard import shard_index

        occupied = shard_index(suite_tasks("table2", False)[0], 2)
        try:
            live = live_url.removeprefix("http://")
            pair = [live, live]
            pair[occupied - 1] = dead
            hosts = ",".join(pair)
            code, out, err = run_cli(
                capsys, "bench", "--suite", "table2", "--distribute", hosts, "--json"
            )
            assert code == 0, err
            document = json.loads(out)
            # Every shard was served, by the one surviving host.
            for report in document["shards"]:
                assert report["ok"]
                assert report["host"] == live_url
            assert [_semantic(r) for r in document["results"]] == [
                _semantic(r) for r in local["results"]
            ]
            assert "marking host dead" in err or "unreachable" in err
        finally:
            _stop_server(server, thread)

    def test_distribute_rejects_shard_and_bad_hosts(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bench", "--suite", "table2",
            "--distribute", "127.0.0.1:1", "--shard", "1/2",
        )
        assert code == 2
        assert "mutually exclusive" in err
        code, _, err = run_cli(
            capsys,
            "bench", "--suite", "table2",
            "--distribute", "127.0.0.1:1,127.0.0.1:1",
        )
        assert code == 2
        assert "duplicate host" in err


# ---------------------------------------------------------------------- #
# 429 backpressure retry policy (client + CLI)
# ---------------------------------------------------------------------- #
class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers 429 (Retry-After: 0) ``fail_times`` times, then 200."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        self.server.requests += 1
        if self.server.requests <= self.server.fail_times:
            body = json.dumps(
                {
                    "error": {
                        "code": "queue_full",
                        "message": "busy",
                        "detail": {},
                    },
                    "request_id": f"r{self.server.requests}",
                }
            ).encode("utf-8")
            self.send_response(429)
            self.send_header("Retry-After", "0")
        else:
            body = json.dumps(self.server.document).encode("utf-8")
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *arguments):  # pragma: no cover - silence
        pass


def _scripted_server(fail_times, document):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.fail_times = fail_times
    server.requests = 0
    server.document = document
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    return server, thread, url


_OK_BATCH = {
    "suite": None,
    "engine": "warm",
    "results": [
        {
            "name": "toy",
            "suite": None,
            "kind": "assertion",
            "outcome": "ok",
            "proved": True,
            "bound": None,
            "wall_time": 0.01,
            "cache_hit": False,
            "detail": "",
            "payload": {"proved": True},
        }
    ],
    "incremental": [],
    "totals": {
        "total": 1, "ok": 1, "proved": 1, "timeout": 0,
        "error": 0, "crash": 0, "pending": 0, "cache_hits": 0,
        "wall_time": 0.01,
    },
}


class TestRetryAfter429:
    def test_client_retries_within_budget_and_succeeds(self):
        server, thread, url = _scripted_server(2, _OK_BATCH)
        try:
            with ServiceClient(url, timeout=10.0) as client:
                response = client.batch({"tasks": [{}]}, retries_429=2)
            assert response.status == 200
            assert server.requests == 3
        finally:
            server.shutdown()
            thread.join(5)

    def test_client_fails_fast_by_default(self):
        server, thread, url = _scripted_server(1, _OK_BATCH)
        try:
            with ServiceClient(url, timeout=10.0) as client:
                with pytest.raises(ServiceHTTPError) as excinfo:
                    client.batch({"tasks": [{}]})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.0
            assert server.requests == 1
        finally:
            server.shutdown()
            thread.join(5)

    def test_cli_batch_retry_budget_is_bounded(self, capsys):
        # An always-429 service: --retry-429 1 means exactly two attempts.
        server, thread, url = _scripted_server(10**6, _OK_BATCH)
        try:
            code, _, err = run_cli(
                capsys,
                "batch", "--url", url, "--suite", "table2", "--retry-429", "1",
            )
            assert code == 2
            assert "429" in err
            assert server.requests == 2
        finally:
            server.shutdown()
            thread.join(5)

    def test_cli_batch_recovers_after_backpressure(self, capsys):
        server, thread, url = _scripted_server(2, _OK_BATCH)
        try:
            code, out, err = run_cli(
                capsys, "batch", "--url", url, "--suite", "table2", "--json"
            )
            assert code == 0, err
            assert json.loads(out)["totals"]["ok"] == 1
            assert server.requests == 3
        finally:
            server.shutdown()
            thread.join(5)
