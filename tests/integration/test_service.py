"""The warm analysis service: worker pool, HTTP endpoint, CLI integration.

Covers the tentpole acceptance properties: warm workers answer repeated
requests from spliced summaries (measurably below a cold run), every fast
suite row gives a warm worker the cold engine's result, first run and
spliced repeat alike, failures replace workers without sinking the
service, a suite row sent to ``POST /v1/analyze`` is the task
``repro bench`` runs and is answered with the record it prints, warm state
never reaches the disk, and ``repro serve`` leaves no worker behind.  The
threaded front-end's SLO machinery has its own classes below: the ``/v1``
route aliasing and error envelope (``TestV1Api``), bounded admission
(``TestBackpressure``), per-request deadlines (``TestDeadlines``), the
``/v1/metrics`` document under concurrent keep-alive load
(``TestMetrics``), and raw-socket framing and shutdown
(``TestHttpFraming``).
"""

import http.client
import json
import multiprocessing
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ChoraOptions
from repro.engine import AnalysisTask, BatchEngine, ResultCache, suite_tasks
from repro.engine.cache import cache_key
from repro.engine.tasks import register_kind
from repro.service import AnalysisServer, WorkerPool, serve
from repro.service.server import task_from_request

TRIVIAL = "int main(int n) { assume(n >= 0); int r = n + 1; assert(r >= 1); return r; }"

CHAIN = """
int leaf(int n) { assume(n >= 0); return n + 1; }
int mid(int n) { assume(n >= 0); return leaf(n) + 1; }
int main(int n) { assume(n >= 0); int r = mid(n); assert(r >= 2); return r; }
"""

#: A call chain with a recursive component: cold analysis takes long enough
#: (height analysis + recurrence solving) that splice-vs-cold timing
#: comparisons sit far above scheduler noise.
HEAVY = """
int work(int n) { if (n <= 0) { return 0; } return work(n - 1) + 1; }
int main(int n) { assume(n >= 0); int r = work(n); assert(r >= 0); return r; }
"""


@register_kind("service-sleep")
def _service_sleep(task, options):
    time.sleep(float(task.param("seconds", 60)))
    return {"proved": True}


@register_kind("service-exit")
def _service_exit(task, options):
    import os

    os._exit(17)


@register_kind("service-unpicklable")
def _service_unpicklable(task, options):
    # Lambdas cannot be pickled: the worker's reply send must fail.
    return {"bad": lambda x: x}


class _ExplodesOnLoad:
    """Pickles fine in the worker, raises while unpickling in the parent."""

    def __reduce__(self):
        return (eval, ("1/0",))


@register_kind("service-unpicklable-on-load")
def _service_unpicklable_on_load(task, options):
    return {"bad": _ExplodesOnLoad()}


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _call(address, route, document=None, deadline_ms=None):
    """One request to ``/v1/<route>`` (POST with a document, else GET):
    ``(status, headers, JSON document)``, for error answers too."""
    host, port = address
    data = None if document is None else json.dumps(document).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if deadline_ms is not None:
        headers["X-Repro-Deadline-Ms"] = str(deadline_ms)
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/{route}", data=data, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, response.headers, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.headers, json.load(error)


def _metrics(address) -> dict:
    status, _, document = _call(address, "metrics")
    assert status == 200
    return document


def _keep_alive_call(connection, route, document=None):
    """Like :func:`_call`, on one open keep-alive ``HTTPConnection``."""
    body = None if document is None else json.dumps(document).encode("utf-8")
    connection.request(
        "GET" if body is None else "POST",
        f"/v1/{route}",
        body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.headers, json.loads(response.read())


FAST_ROWS = suite_tasks("all", full=False)
FAST_IDS = [f"{task.suite}/{task.name}" for task in FAST_ROWS]


@pytest.fixture(scope="module")
def warm_pool():
    """One warm worker for every fast row: each row runs on the memo tables
    and summary store that the rows before it filled."""
    with WorkerPool(workers=1) as pool:
        yield pool


@pytest.fixture(scope="module")
def warm_server(warm_pool):
    """The ``/v1`` front-end over the fast rows' warm worker."""
    server, thread = _start_server(warm_pool)
    yield server
    _stop_server(server, thread)


@pytest.fixture(scope="module")
def cold_fast_rows():
    return BatchEngine(jobs=2).run(FAST_ROWS)


class TestWorkerPool:
    @pytest.mark.parametrize("index", range(len(FAST_ROWS)), ids=FAST_IDS)
    def test_results_match_the_cold_engine(self, warm_pool, cold_fast_rows, index):
        warm = warm_pool.submit(FAST_ROWS[index])
        cold = cold_fast_rows[index]
        assert warm.outcome == cold.outcome == "ok"
        assert (warm.proved, warm.bound) == (cold.proved, cold.bound)
        assert dict(warm.payload) == dict(cold.payload)

    @pytest.mark.parametrize("index", range(len(FAST_ROWS)), ids=FAST_IDS)
    def test_repeated_row_is_spliced_to_the_cold_result(
        self, warm_pool, cold_fast_rows, index
    ):
        """A row the worker has run before is answered from its summary
        store: every procedure spliced, none analysed again."""
        warm_pool.submit(FAST_ROWS[index])
        before = warm_pool.stats_dict()
        warm = warm_pool.submit(FAST_ROWS[index])
        after = warm_pool.stats_dict()
        assert after["procedures_analyzed"] == before["procedures_analyzed"]
        assert after["procedures_reused"] > before["procedures_reused"]
        cold = cold_fast_rows[index]
        assert warm.outcome == "ok" and not warm.cache_hit
        assert (warm.proved, warm.bound) == (cold.proved, cold.bound)
        assert dict(warm.payload) == dict(cold.payload)

    def test_repeated_requests_splice_and_get_faster(self):
        # A program with a recursive component: its cold analysis is far
        # above scheduler noise, so the splice-vs-cold ratio is stable.
        task = AnalysisTask(name="toy", source=HEAVY, kind="assertion")
        with WorkerPool(workers=1) as pool:
            first = pool.submit(task)
            repeat = pool.submit(task)
            stats = pool.stats_dict()
        assert first.outcome == repeat.outcome == "ok"
        assert first.proved == repeat.proved
        # The repeat splices every summary: well below the from-scratch run.
        assert repeat.wall_time < first.wall_time / 2
        assert stats["procedures_reused"] >= 2

    def test_edited_program_reuses_the_unchanged_procedures(self):
        edited = CHAIN.replace("return leaf(n) + 1;", "return leaf(n) + 2;")
        with WorkerPool(workers=1) as pool:
            pool.submit(AnalysisTask(name="v1", source=CHAIN, kind="assertion"))
            reused_before = pool.stats_dict()["procedures_reused"]
            pool.submit(AnalysisTask(name="v2", source=edited, kind="assertion"))
            reused_after = pool.stats_dict()["procedures_reused"]
        assert reused_after > reused_before  # leaf was spliced, not re-run

    def test_timeout_replaces_the_worker_and_keeps_serving(self):
        with WorkerPool(workers=1, timeout=0.5) as pool:
            hung = pool.submit(
                AnalysisTask(
                    name="hang",
                    source="",
                    kind="service-sleep",
                    params=(("seconds", 60),),
                )
            )
            assert hung.outcome == "timeout"
            after = pool.submit(
                AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
            )
            assert after.outcome == "ok"
            assert pool.stats_dict()["restarts"] == 1

    def test_worker_death_is_a_crash_not_a_hang(self):
        with WorkerPool(workers=1) as pool:
            dead = pool.submit(AnalysisTask(name="die", source="", kind="service-exit"))
            assert dead.outcome == "crash"
            assert "17" in dead.detail
            after = pool.submit(
                AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
            )
            assert after.outcome == "ok"

    def test_analysis_error_keeps_the_worker(self):
        with WorkerPool(workers=1) as pool:
            bad = pool.submit(AnalysisTask(name="bad", source="int (", kind="analyze"))
            assert bad.outcome == "error"
            assert pool.stats_dict()["restarts"] == 0

    def test_unserializable_payload_is_an_error_and_keeps_the_worker(self):
        with WorkerPool(workers=1) as pool:
            bad = pool.submit(
                AnalysisTask(name="bad", source="", kind="service-unpicklable")
            )
            assert bad.outcome == "error"
            assert "could not be serialized" in bad.detail
            after = pool.submit(
                AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
            )
            assert after.outcome == "ok"
            assert pool.stats_dict()["restarts"] == 0

    def test_undeserializable_payload_is_an_error_and_keeps_the_worker(self):
        with WorkerPool(workers=1) as pool:
            bad = pool.submit(
                AnalysisTask(name="bad", source="", kind="service-unpicklable-on-load")
            )
            assert bad.outcome == "error"
            assert "could not be deserialized" in bad.detail
            after = pool.submit(
                AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
            )
            assert after.outcome == "ok"
            assert pool.stats_dict()["restarts"] == 0

    def test_pool_uses_the_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion", suite="toy")
        with WorkerPool(workers=1, cache=cache) as pool:
            first = pool.submit(task)
            second = pool.submit(task)
        assert not first.cache_hit and second.cache_hit
        assert dict(second.payload) == dict(first.payload)
        assert cache.stats()["suites"] == {"toy": 1}

    def test_timeout_zero_is_immediate_and_keeps_the_worker(self):
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
        with WorkerPool(workers=1, timeout=0) as pool:
            result = pool.submit(task)
            stats = pool.stats_dict()
        assert result.outcome == "timeout"
        assert "0s deadline" in result.detail
        # The deadline fires before a worker is engaged, so none is killed.
        assert stats["restarts"] == 0
        assert stats["timeouts"] == 1

    def test_a_cached_pool_writes_only_result_entries(self, tmp_path):
        """Warm state stays in the workers' memory: a pool that served a
        miss and closed leaves nothing on disk but result-cache entries."""
        task = AnalysisTask(name="toy", source=CHAIN, kind="assertion")
        with WorkerPool(workers=1, cache=ResultCache(tmp_path)) as pool:
            assert pool.submit(task).outcome == "ok"
        written = sorted(tmp_path.rglob("*"))
        assert written
        for path in written:
            assert path.parent == tmp_path and path.suffix == ".json", path

    def test_unexpected_submit_error_never_leaks_the_worker_slot(self, monkeypatch):
        """Regression: only Timeout/ConnectionError used to re-account the
        worker; any other exception from ``request`` leaked the slot and
        permanently shrank the pool (the next submit would block forever on
        a one-worker pool)."""
        from repro.service.pool import _WarmWorker

        with WorkerPool(workers=1) as pool:
            original = _WarmWorker.request

            def explodes(self, task, timeout):
                raise RuntimeError("surprise failure between checkout and reply")

            monkeypatch.setattr(_WarmWorker, "request", explodes)
            with pytest.raises(RuntimeError, match="surprise"):
                pool.submit(AnalysisTask(name="boom", source=TRIVIAL, kind="assertion"))
            monkeypatch.setattr(_WarmWorker, "request", original)
            # The slot was replaced, not leaked: the pool still serves.
            after = pool.submit(
                AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
            )
            assert after.outcome == "ok"
            assert pool.stats_dict()["restarts"] == 1

    def test_workers_ignore_sigint(self):
        """A terminal Ctrl-C signals the whole foreground process group;
        a worker's lifecycle belongs to the parent, so workers must not die
        from it mid-request (regression: they used to)."""
        import pathlib
        import signal

        if not pathlib.Path("/proc").is_dir():
            pytest.skip("needs /proc to inspect signal dispositions")
        with WorkerPool(workers=1) as pool:
            # A served request guarantees the worker finished starting up
            # (the SIG_IGN is installed before the ready handshake).
            assert (
                pool.submit(
                    AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
                ).outcome
                == "ok"
            )
            worker = pool._all[0]
            status = pathlib.Path(f"/proc/{worker.process.pid}/status").read_text()
            line = next(l for l in status.splitlines() if l.startswith("SigIgn"))
            ignored = int(line.split()[1], 16)
        assert ignored & (1 << (signal.SIGINT - 1))


class TestAnalysisServer:
    @pytest.fixture()
    def server(self):
        pool = WorkerPool(workers=1)
        server = AnalysisServer(pool, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.close()
        thread.join(5)

    def _post(self, server, document, content_type="application/json"):
        host, port = server.address
        data = (
            document.encode("utf-8")
            if isinstance(document, str)
            else json.dumps(document).encode("utf-8")
        )
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/analyze",
            data=data,
            headers={"Content-Type": content_type},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read())

    def _get(self, server, path):
        host, port = server.address
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30
        ) as response:
            return json.loads(response.read())

    def test_analyze_returns_the_cli_json_record(self, server):
        record = self._post(server, {"source": TRIVIAL})
        assert record["outcome"] == "ok"
        assert record["proved"] is True
        assert set(record) >= {"name", "kind", "outcome", "payload", "wall_time"}
        assert record["payload"]["assertions"][0]["proved"] is True

    def test_repeated_requests_are_warm(self, server):
        self._post(server, {"source": CHAIN})
        started = time.perf_counter()
        record = self._post(server, {"source": CHAIN})
        elapsed = time.perf_counter() - started
        assert record["outcome"] == "ok"
        assert elapsed < 1.0  # cold analysis of CHAIN takes far longer
        metrics = self._get(server, "/v1/metrics")
        assert metrics["pool"]["procedures_reused"] >= 3

    def test_plain_text_body_is_program_source(self, server):
        record = self._post(server, TRIVIAL, content_type="text/plain")
        assert record["outcome"] == "ok"

    def test_healthz(self, server):
        assert self._get(server, "/v1/healthz") == {"status": "ok", "workers": 1}

    def test_bad_requests_get_400(self, server):
        host, port = server.address
        malformed_fields = [
            {"source": TRIVIAL, "kind": "nope"},
            {"source": TRIVIAL, "procedure": 5},
            {"source": TRIVIAL, "cost_variable": 5},
        ]
        bodies = [b"{not json", b"{}", b'{"source": 3}', b'["list"]'] + [
            json.dumps(body).encode("utf-8") for body in malformed_fields
        ]
        for body in bodies:
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/analyze",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request, timeout=30)
            assert error.value.code == 400, body

    def test_non_integral_substitutions_get_400(self, server):
        """Regression: ``{"n": 2.7}`` used to be silently truncated to 2
        and booleans accepted as 0/1."""
        host, port = server.address
        for substitutions in ({"n": 2.7}, {"n": True}, {"n": None}):
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/analyze",
                data=json.dumps(
                    {"source": TRIVIAL, "substitutions": substitutions}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request, timeout=30)
            assert error.value.code == 400
            assert "integer" in json.load(error.value)["error"]["message"]
        # Integral values in any JSON spelling still work.
        record = self._post(
            server, {"source": TRIVIAL, "substitutions": {"n": 2.0, "m": "3"}}
        )
        assert record["outcome"] == "ok"

    def test_malformed_substitution_pairs_get_the_field_message(self):
        """Regression: a repeated name kept both pairs (the larger value won
        downstream), ``[["n", 1, 2]]`` answered with the interpreter's
        unpacking error, and ``["ab"]`` was split into the pair a=b."""

        def parse(substitutions):
            body = json.dumps({"source": TRIVIAL, "substitutions": substitutions})
            return task_from_request(body.encode("utf-8"), "application/json")[0]

        for repeated in ([["n", 9], ["n", 5]], [["n", 5], ["n", 9]], [["1", 2], [1, 3]]):
            with pytest.raises(ValueError, match="substitution '(n|1)' is given twice"):
                parse(repeated)
        for malformed in ([["n", 1, 2]], [["n"]], ["ab"], [5], [{"n": 1}]):
            with pytest.raises(ValueError) as error:
                parse(malformed)
            assert str(error.value) == '"substitutions" must be an object or a pair list'
        assert parse([["m", 3], ["n", 2]]).substitutions == (("m", 3), ("n", 2))
        assert parse({"n": 2, "m": 3}).substitutions == (("m", 3), ("n", 2))

    def test_unknown_path_is_404(self, server):
        host, port = server.address
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=30)
        assert error.value.code == 404

    def test_closed_pool_is_a_500_json_error_not_a_dropped_connection(self, server):
        """Regression: an exception out of ``pool.submit`` used to escape
        ``do_POST``, dropping the connection with a stderr traceback."""
        server.pool.close()
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/analyze",
            data=json.dumps({"source": TRIVIAL}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=30)
        assert error.value.code == 500
        envelope = json.load(error.value)
        assert envelope["error"]["code"] == "internal"
        assert "closed" in envelope["error"]["message"]


def _body(task: AnalysisTask) -> bytes:
    """``task`` as a client writes it in a ``POST /v1/analyze`` body."""
    document = {
        "name": task.name,
        "source": task.source,
        "kind": task.kind,
        "procedure": task.procedure,
        "cost_variable": task.cost_variable,
        "substitutions": dict(task.substitutions),
        "params": dict(task.params),
        "suite": task.suite,
    }
    return json.dumps(document).encode("utf-8")


ALL_ROWS = suite_tasks("all", full=True)

#: Every (suite, tool) pair ``repro bench`` accepts, unrolling at depth 2.
SUITE_TOOLS = [
    ("table1", "chora", None),
    ("table1", "icra", None),
    ("fig3", "chora", None),
    ("fig3", "icra", None),
    ("fig3", "unrolling", 2),
    ("table2", "chora", None),
    ("table2", "icra", None),
    ("table2", "unrolling", 2),
]


class TestAnalyzeBodies:
    """A suite row sent as a ``POST /v1/analyze`` body parses to the task
    ``repro bench`` runs, so the service and a local bench share
    result-cache entries, and the service answers it with the record
    ``repro bench --json`` prints."""

    @pytest.mark.parametrize(
        "task", ALL_ROWS, ids=[f"{task.suite}/{task.name}" for task in ALL_ROWS]
    )
    def test_row_body_is_the_suite_task(self, task):
        parsed, deadline_ms = task_from_request(_body(task), "application/json")
        assert deadline_ms is None
        assert parsed == task
        assert cache_key(parsed, ChoraOptions()) == cache_key(task, ChoraOptions())

    @pytest.mark.parametrize("index", range(len(FAST_ROWS)), ids=FAST_IDS)
    def test_served_row_is_the_bench_record(self, warm_server, cold_fast_rows, index):
        host, port = warm_server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/analyze",
            data=_body(FAST_ROWS[index]),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            served = json.loads(response.read())
        printed = json.loads(json.dumps(cold_fast_rows[index].to_dict()))
        del served["wall_time"], printed["wall_time"]
        assert served == printed

    @pytest.mark.parametrize(
        "suite, tool, depth",
        SUITE_TOOLS,
        ids=[f"{suite}-{tool}" for suite, tool, _ in SUITE_TOOLS],
    )
    def test_suite_rows_round_trip_with_distinct_cache_keys(self, suite, tool, depth):
        tasks = suite_tasks(suite, True, tool, depth)
        parsed = [task_from_request(_body(task), "application/json")[0] for task in tasks]
        assert parsed == tasks
        assert len({cache_key(task, ChoraOptions()) for task in tasks}) == len(tasks)


def _start_server(pool, **kwargs):
    server = AnalysisServer(pool, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop_server(server, thread):
    server.shutdown()
    server.close()
    thread.join(5)


class TestV1Api:
    @pytest.fixture()
    def server(self):
        server, thread = _start_server(WorkerPool(workers=1))
        yield server
        _stop_server(server, thread)

    def test_v1_routes_answer_without_deprecation(self, server):
        host, port = server.address
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/healthz", timeout=30
        ) as response:
            assert json.loads(response.read()) == {"status": "ok", "workers": 1}
            assert response.headers.get("Deprecation") is None
            assert response.headers.get("X-Request-Id")

    def test_unversioned_paths_are_not_found(self, server):
        host, port = server.address
        for name in ("healthz", "stats", "analyze"):
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(f"http://{host}:{port}/{name}", timeout=30)
            assert error.value.code == 404, name
            envelope = json.load(error.value)
            assert envelope["error"]["code"] == "not_found", name

    def test_error_envelope_shape(self, server):
        host, port = server.address
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"http://{host}:{port}/v1/nope", timeout=30)
        assert error.value.code == 404
        envelope = json.load(error.value)
        assert set(envelope) == {"error", "request_id"}
        assert set(envelope["error"]) == {"code", "message", "detail"}
        assert envelope["error"]["code"] == "not_found"
        assert envelope["request_id"] == error.value.headers["X-Request-Id"]

    def test_wrong_method_is_405_with_allow(self, server):
        host, port = server.address
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"http://{host}:{port}/v1/analyze", timeout=30)
        assert error.value.code == 405
        assert error.value.headers["Allow"] == "POST"
        assert json.load(error.value)["error"]["code"] == "method_not_allowed"

    def test_request_ids_are_distinct_per_request(self, server):
        host, port = server.address
        seen = set()
        for _ in range(3):
            with urllib.request.urlopen(
                f"http://{host}:{port}/v1/healthz", timeout=30
            ) as response:
                seen.add(response.headers["X-Request-Id"])
        assert len(seen) == 3

    def test_pipelined_requests_answer_in_order(self, server):
        """Two requests written back-to-back before reading: both answered,
        in order, on the one connection."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=30) as sock:
            request = (
                f"GET /v1/healthz HTTP/1.1\r\nHost: {host}\r\n\r\n"
                f"GET /v1/metrics HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n"
            )
            sock.sendall(request.encode("ascii"))
            payload = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                payload += chunk
        text = payload.decode("utf-8")
        assert text.count("HTTP/1.1 200 OK") == 2
        # The healthz body precedes the metrics body.
        assert text.index('"status"') < text.index('"uptime_seconds"')

    def test_deleted_batch_route_is_not_found(self, server):
        status, _, envelope = _call(server.address, "batch", {"suite": "table2"})
        assert status == 404
        assert envelope["error"]["code"] == "not_found"


class TestBackpressure:
    def test_saturated_queue_gets_429_with_retry_after(self):
        """Acceptance: a full admission queue answers 429 immediately —
        never an unbounded hang — and the slot is reclaimed afterwards."""
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool, backlog=0)
        address = server.address
        try:
            assert server.capacity == 1
            occupied = threading.Thread(
                target=lambda: _call(
                    address,
                    "analyze",
                    {
                        "source": "ignored",
                        "kind": "service-sleep",
                        "params": {"seconds": 3},
                    },
                ),
                daemon=True,
            )
            occupied.start()
            # Wait until the sleeper is actually admitted.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if _metrics(address)["queue"]["in_flight"] == 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("the sleeper request was never admitted")
            status, headers, envelope = _call(address, "analyze", {"source": TRIVIAL})
            assert status == 429
            assert envelope["error"]["code"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1
            assert envelope["error"]["detail"]["capacity"] == 1
            occupied.join(30)
            assert not occupied.is_alive()
            # The slot is reclaimed: the same request is served now.
            status, _, record = _call(address, "analyze", {"source": TRIVIAL})
            assert status == 200 and record["outcome"] == "ok"
            assert _metrics(address)["rejected_429"] == 1
        finally:
            _stop_server(server, thread)

    def test_non_admission_routes_answer_while_saturated(self):
        """healthz/metrics/lint bypass admission: the SLO surface stays
        observable, and lint answers, exactly when the service is
        overloaded."""
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool, backlog=0)
        address = server.address
        try:
            occupied = threading.Thread(
                target=lambda: _call(
                    address,
                    "analyze",
                    {
                        "source": "ignored",
                        "kind": "service-sleep",
                        "params": {"seconds": 3},
                    },
                ),
                daemon=True,
            )
            occupied.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if _metrics(address)["queue"]["in_flight"] == 1:
                    break
                time.sleep(0.02)
            assert _call(address, "healthz")[2]["status"] == "ok"
            assert _metrics(address)["pool"]["workers"] == 1
            # Lint takes no admission slot, so it must not wait for the
            # analysis holding the only one.
            status, _, linted = _call(address, "lint", {"source": TRIVIAL})
            assert status == 200 and linted["ok"] is True
            assert _metrics(address)["queue"]["in_flight"] == 1
            occupied.join(30)
        finally:
            _stop_server(server, thread)


class TestDeadlines:
    def test_expired_deadline_is_504_and_the_slot_is_reclaimed(self):
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        address = server.address
        try:
            status, _, envelope = _call(
                address,
                "analyze",
                {
                    "source": "ignored",
                    "kind": "service-sleep",
                    "params": {"seconds": 60},
                },
                deadline_ms=300,
            )
            assert status == 504
            assert envelope["error"]["code"] == "deadline_exceeded"
            assert envelope["error"]["detail"]["deadline_ms"] == 300
            assert envelope["error"]["detail"]["result"]["outcome"] == "timeout"
            # The hung worker was killed and replaced, and the admission
            # slot released: the service still serves.
            status, _, record = _call(address, "analyze", {"source": TRIVIAL})
            assert status == 200 and record["outcome"] == "ok"
            metrics = _metrics(address)
            assert metrics["deadline_504"] == 1
            assert metrics["queue"]["in_flight"] == 0
            assert pool.stats_dict()["restarts"] == 1
        finally:
            _stop_server(server, thread)

    def test_body_deadline_field_works_like_the_header(self):
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        host, port = server.address
        try:
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/analyze",
                data=json.dumps(
                    {
                        "source": "ignored",
                        "kind": "service-sleep",
                        "params": {"seconds": 60},
                        "deadline_ms": 300,
                    }
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request, timeout=60)
            assert error.value.code == 504
            assert json.load(error.value)["error"]["code"] == "deadline_exceeded"
        finally:
            _stop_server(server, thread)

    def test_deadline_tightens_but_never_extends_the_pool_timeout(self):
        """A client deadline far above the operator's --timeout must not
        extend it: the pool's own shorter deadline still fires, and that
        is a 200 timeout record (the service kept its own SLO), not 504."""
        pool = WorkerPool(workers=1, timeout=0.3)
        server, thread = _start_server(pool)
        try:
            status, _, record = _call(
                server.address,
                "analyze",
                {
                    "source": "ignored",
                    "kind": "service-sleep",
                    "params": {"seconds": 60},
                },
                deadline_ms=60_000,
            )
            assert status == 200
            assert record["outcome"] == "timeout"
            assert "0.3" in record["detail"]
        finally:
            _stop_server(server, thread)

    def test_malformed_deadlines_are_400(self):
        """Booleans are no deadline: ``true`` used to become 1 ms."""
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        host, port = server.address
        try:
            for value in ("nope", "-5", "0"):
                request = urllib.request.Request(
                    f"http://{host}:{port}/v1/analyze",
                    data=json.dumps({"source": TRIVIAL}).encode("utf-8"),
                    headers={
                        "Content-Type": "application/json",
                        "X-Repro-Deadline-Ms": value,
                    },
                )
                with pytest.raises(urllib.error.HTTPError) as error:
                    urllib.request.urlopen(request, timeout=30)
                assert error.value.code == 400, value
                assert json.load(error.value)["error"]["code"] == "bad_request"
            for value in (True, False, "nope"):
                status, _, envelope = _call(
                    server.address,
                    "analyze",
                    {"source": TRIVIAL, "deadline_ms": value},
                )
                assert status == 400, value
                assert envelope["error"]["code"] == "bad_request"
        finally:
            _stop_server(server, thread)

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_waiting_for_a_worker_counts_against_the_deadline(self, where):
        """The deadline anchors at admission: a request queued behind a
        busy worker times out when its budget runs out, without taking
        (and then killing) the worker."""
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        address = server.address
        holder = threading.Thread(
            target=lambda: _call(
                address,
                "analyze",
                {"source": "ignored", "kind": "service-sleep", "params": {"seconds": 2}},
            ),
            daemon=True,
        )
        task = {
            "name": "queued",
            "source": "ignored",
            "kind": "service-sleep",
            "params": {"seconds": 0.1},
        }
        try:
            holder.start()
            deadline = time.monotonic() + 10
            while _metrics(address)["workers"]["busy"] != 1:
                assert time.monotonic() < deadline, "the holder never started"
                time.sleep(0.02)
            if where == "body":
                task, header_ms = {**task, "deadline_ms": 1000}, None
            else:
                header_ms = 1000
            started = time.monotonic()
            status, _, envelope = _call(address, "analyze", task, deadline_ms=header_ms)
            elapsed = time.monotonic() - started
            assert status == 504
            assert envelope["error"]["code"] == "deadline_exceeded"
            assert elapsed < 1.5
            holder.join(30)
            assert pool.stats_dict()["restarts"] == 0
        finally:
            _stop_server(server, thread)


class TestMetrics:
    def test_percentiles_under_concurrent_keep_alive_clients(self):
        pool = WorkerPool(workers=2)
        server, thread = _start_server(pool)
        address = server.address
        requests_per_client, clients = 4, 3
        try:
            def hammer():
                connection = http.client.HTTPConnection(*address, timeout=120)
                try:
                    for _ in range(requests_per_client):
                        status, _, record = _keep_alive_call(
                            connection, "analyze", {"source": TRIVIAL}
                        )
                        assert status == 200 and record["outcome"] == "ok"
                finally:
                    connection.close()

            threads = [
                threading.Thread(target=hammer, daemon=True) for _ in range(clients)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(120)
            assert not any(worker.is_alive() for worker in threads)
            metrics = _metrics(address)
            analyze = metrics["routes"]["analyze"]
            total = requests_per_client * clients
            assert analyze["count"] == total
            assert analyze["window"] == total
            assert 0 < analyze["p50_ms"] <= analyze["p95_ms"] <= analyze["p99_ms"]
            assert analyze["p99_ms"] <= analyze["max_ms"]
            assert metrics["responses"]["2xx"] >= total
            assert metrics["queue"]["capacity"] == pool.workers + server.backlog
            assert metrics["queue"]["in_flight"] == 0
            assert 0.0 <= metrics["workers"]["utilisation"] <= 1.0
            assert metrics["workers"]["total"] == 2
        finally:
            _stop_server(server, thread)

    def test_no_count_is_lost_across_connection_threads(self):
        """Every connection thread updates the admission counter, the
        metrics and the request ids; with more clients than cores and a
        short switch interval, a lost update would show in the totals."""
        pool = WorkerPool(workers=2)
        server, thread = _start_server(pool)
        address = server.address
        clients, rounds = 8, 15
        sleep0 = {"source": "ignored", "kind": "service-sleep", "params": {"seconds": 0}}
        ids: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def hammer():
                connection = http.client.HTTPConnection(*address, timeout=120)
                try:
                    for _ in range(rounds):
                        for route, document in (("healthz", None), ("analyze", sleep0)):
                            status, headers, _ = _keep_alive_call(
                                connection, route, document
                            )
                            assert status == 200
                            ids.append(headers["X-Request-Id"])
                finally:
                    connection.close()

            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(120)
            assert not any(worker.is_alive() for worker in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            metrics = _metrics(address)
            total = clients * rounds
            assert len(ids) == len(set(ids)) == 2 * total
            assert metrics["routes"]["healthz"]["count"] == total
            assert metrics["routes"]["analyze"]["count"] == total
            assert metrics["responses"]["2xx"] == 2 * total
            assert metrics["queue"]["in_flight"] == 0
        finally:
            _stop_server(server, thread)

    def test_error_responses_are_counted_by_class(self):
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        host, port = server.address
        try:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/v1/nope", timeout=30)
            assert _metrics(server.address)["responses"]["4xx"] >= 1
        finally:
            _stop_server(server, thread)


def _exchange(address, data: bytes, timeout: float = 30) -> bytes:
    """Send raw bytes on a fresh connection; read until the server closes it."""
    received = b""
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before reading it all
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # unread request bytes reset the closed connection
            if not chunk:
                break
            received += chunk
    return received


def _responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split raw bytes into ``(status, lower-cased headers, body)`` answers."""
    answers = []
    while data:
        head, separator, data = data.partition(b"\r\n\r\n")
        assert separator, f"truncated answer head {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        answers.append((int(status_line.split()[1]), headers, data[:length]))
        data = data[length:]
    return answers


#: Requests whose framing the server cannot parse, and the envelope code
#: each must get.
_FRAMING_ERRORS = {
    "malformed-request-line": (b"NOT A REQUEST LINE\r\n\r\n", "bad_request"),
    "overlong-request-line": (
        b"GET /v1/" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        "bad_request",
    ),
    "non-numeric-content-length": (
        b"POST /v1/analyze HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        "bad_request",
    ),
    "negative-content-length": (
        b"POST /v1/analyze HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        "bad_request",
    ),
    "header-without-colon": (
        b"GET /v1/healthz HTTP/1.1\r\nno colon on this line\r\n\r\n",
        "bad_request",
    ),
    "200-header-lines": (
        b"GET /v1/healthz HTTP/1.1\r\n"
        + b"".join(b"X-Filler-%d: x\r\n" % index for index in range(200))
        + b"\r\n",
        "bad_request",
    ),
    "body-over-16-MiB-unsent": (
        b"POST /v1/analyze HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (16 * 1024 * 1024 + 1),
        "payload_too_large",
    ),
}


class TestHttpFraming:
    """Raw-socket framing: what a client that does not speak clean HTTP/1.1
    gets back.  Status codes and reason phrases of the overlong and
    too-many-headers cases are not pinned, only the envelope code."""

    @pytest.fixture(scope="class")
    def server(self):
        server, thread = _start_server(WorkerPool(workers=1))
        yield server
        _stop_server(server, thread)

    @staticmethod
    def _envelope(answer) -> dict:
        status, headers, body = answer
        assert headers["content-type"] == "application/json"
        envelope = json.loads(body)
        assert set(envelope) == {"error", "request_id"}
        return envelope

    @pytest.mark.parametrize("case", sorted(_FRAMING_ERRORS))
    def test_framing_error_is_one_envelope_then_close(self, server, case):
        data, code = _FRAMING_ERRORS[case]
        answers = _responses(_exchange(server.address, data))
        assert len(answers) == 1, answers
        assert self._envelope(answers[0])["error"]["code"] == code

    @pytest.mark.parametrize("case", sorted(_FRAMING_ERRORS))
    def test_framing_error_has_a_request_id_and_is_counted(self, server, case):
        data, _ = _FRAMING_ERRORS[case]
        before = _metrics(server.address)["responses"]
        ((status, headers, body),) = _responses(_exchange(server.address, data))
        after = _metrics(server.address)["responses"]
        assert headers.get("x-request-id")
        assert json.loads(body)["request_id"] == headers["x-request-id"]
        assert 400 <= status < 500
        assert after["4xx"] == before["4xx"] + 1

    def test_chunked_body_is_one_400_then_close(self, server):
        body = json.dumps({"source": TRIVIAL}).encode("utf-8")
        data = (
            b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body)
            + body
            + b"\r\n0\r\n\r\n"
        )
        answers = _responses(_exchange(server.address, data))
        assert len(answers) == 1, answers
        assert answers[0][0] == 400
        error = self._envelope(answers[0])["error"]
        assert error["code"] == "bad_request"
        assert "chunked" in error["message"]

    def test_put_is_405_with_allow(self, server):
        data = (
            b"PUT /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
            b"Connection: close\r\n\r\n{}"
        )
        ((status, headers, body),) = _responses(_exchange(server.address, data))
        assert status == 405
        assert headers["allow"] == "POST"
        assert json.loads(body)["error"]["code"] == "method_not_allowed"

    def test_http_1_0_without_keep_alive_gets_one_answer(self, server):
        data = b"GET /v1/healthz HTTP/1.0\r\n\r\n"
        answers = _responses(_exchange(server.address, data, timeout=10))
        assert [status for status, _, _ in answers] == [200]
        assert json.loads(answers[0][2])["status"] == "ok"

    def test_close_ends_open_keep_alive_connections(self):
        before = set(threading.enumerate())
        server, thread = _start_server(WorkerPool(workers=1))
        request = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(request)
            answer = http.client.HTTPResponse(sock)
            answer.begin()
            assert answer.status == 200 and answer.read()
            answer.close()
            _stop_server(server, thread)
            late = b""
            try:
                sock.sendall(request)
                while chunk := sock.recv(65536):
                    late += chunk
            except (BrokenPipeError, ConnectionResetError):
                pass
        assert late == b""
        assert [t for t in threading.enumerate() if t not in before] == []


class TestImportPath:
    def test_cli_import_loads_no_front_end(self):
        """``import repro.cli`` is what paper-cold's ``setup_s`` times, so
        the HTTP front-end must stay off its import path."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        code = "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=environment,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        assert [name for name in loaded if name.startswith("repro.service")] == []
        assert {"asyncio", "http.server", "socketserver"} & set(loaded) == set()


class TestServeBindFailure:
    def test_bind_failure_leaks_no_workers(self):
        """Regression: ``serve()`` used to fork the pool before binding, so
        a busy port leaked the workers forever."""
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            before = set(multiprocessing.active_children())
            with pytest.raises(OSError):
                serve(port=port)
            assert set(multiprocessing.active_children()) == before
        finally:
            blocker.close()

    def test_cli_serve_reports_the_busy_port(self, capsys):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code, _, err = run_cli(
                capsys, "serve", "--port", str(port), "--workers", "1"
            )
            assert code == 2
            assert "cannot bind" in err
        finally:
            blocker.close()


class TestServeBanner:
    def test_banner_names_every_route(self):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1", "--no-cache",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=environment,
            text=True,
        )
        try:
            readable, _, _ = select.select([process.stdout], [], [], 120)
            banner = process.stdout.readline() if readable else ""
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        # The token after " on http://" is the bound address.
        assert banner.startswith("repro serve: 1 warm workers on http://127.0.0.1:")
        routes = banner.split("(/v1: ", 1)[1].split(";", 1)[0].split(", ")
        assert routes == [
            f"{method} {name}" for name, method in AnalysisServer.ROUTES.items()
        ]
        assert routes == ["POST analyze", "POST lint", "GET healthz", "GET metrics"]

    def test_banner_is_written_once_sigterm_is_handled(self, monkeypatch):
        """A caller that signals as soon as it reads the banner must reach
        the clean shutdown path, never the default SIGTERM action."""

        class Server:
            ROUTES = AnalysisServer.ROUTES
            address = ("127.0.0.1", 0)
            capacity = 1
            closed = False

            def serve_forever(self):
                pass

            def close(self):
                self.closed = True

        class Stdout:
            def __init__(self):
                self.handlers = []

            def write(self, text):
                if text.startswith("repro serve:"):
                    self.handlers.append(signal.getsignal(signal.SIGTERM))
                return len(text)

            def flush(self):
                pass

        server, stdout = Server(), Stdout()
        monkeypatch.setattr("repro.service.serve", lambda **_: server)
        monkeypatch.setattr(sys, "stdout", stdout)
        before = signal.getsignal(signal.SIGTERM)
        assert main(["serve", "--port", "0", "--workers", "1", "--no-cache"]) == 0
        assert len(stdout.handlers) == 1
        assert callable(stdout.handlers[0]) and stdout.handlers[0] is not before
        assert signal.getsignal(signal.SIGTERM) is before
        assert server.closed


def _live_children(pid: int) -> list[int]:
    """The PIDs of ``pid``'s children that have not exited, from /proc."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError, ValueError):
            continue
        if int(ppid) == pid and state != "Z":
            children.append(int(stat.parent.name))
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="finds the workers in /proc"
)
class TestServeOrphans:
    def test_workers_exit_when_the_server_is_killed(self):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "2", "--no-cache",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=environment,
            text=True,
        )
        workers: list[int] = []
        try:
            readable, _, _ = select.select([process.stdout], [], [], 120)
            assert readable and process.stdout.readline().startswith("repro serve:")
            workers = _live_children(process.pid)
            assert len(workers) == 2
            # SIGKILL runs no handler: only the workers can notice.
            process.kill()
            process.wait()
            deadline = time.monotonic() + 15
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            for pid in workers:
                if _running(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
            process.stdout.close()
