"""The 429 backpressure retry policy of ``ServiceClient`` and ``repro batch``.

A scripted stand-in service answers ``429`` with ``Retry-After: 0`` a set
number of times before it answers ``200``.  The client fails fast by
default and retries within an explicit budget; ``repro batch
--retry-429 N`` makes at most ``N + 1`` attempts and exits 2 when the
service is still saturated.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.service.client import ServiceClient, ServiceHTTPError


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        "error": 0, "crash": 0, "cache_hits": 0,
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
