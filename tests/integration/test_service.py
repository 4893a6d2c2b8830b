"""The warm analysis service: worker pool, HTTP endpoint, CLI integration.

Covers the tentpole acceptance properties: warm workers answer repeated
requests from spliced summaries (measurably below a cold run), results
agree with the cold engine, failures replace workers without sinking the
service, ``POST /v1/batch`` serves whole suites bit-identically to
``repro bench``, warm state never reaches the disk,
``repro bench --engine warm`` / ``repro batch`` round-trip through the
CLI, and ``repro serve`` leaves no worker behind.  The threaded
front-end's SLO machinery has its own classes below: the ``/v1`` route
aliasing and error envelope (``TestV1Api``), bounded admission
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
from repro.service import (
    AnalysisServer,
    ServiceClient,
    ServiceHTTPError,
    WorkerPool,
    serve,
)
from repro.service.server import tasks_from_batch_request

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


class TestWorkerPool:
    def test_results_match_the_cold_engine(self):
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
        cold = BatchEngine().run([task])[0]
        with WorkerPool(workers=1) as pool:
            warm = pool.submit(task)
        assert warm.outcome == "ok"
        assert warm.proved == cold.proved
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

    def test_run_preserves_task_order(self):
        tasks = [
            AnalysisTask(name=f"t{i}", source=TRIVIAL, kind="assertion")
            for i in range(5)
        ]
        with WorkerPool(workers=2) as pool:
            results = pool.run(tasks)
        assert [result.name for result in results] == [task.name for task in tasks]

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


class TestBatchRoute:
    @pytest.fixture()
    def server(self):
        pool = WorkerPool(workers=2)
        server = AnalysisServer(pool, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.close()
        thread.join(5)

    def _post_batch(self, server, document):
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/batch",
            data=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=600) as response:
            return json.loads(response.read())

    @staticmethod
    def _semantic(record):
        """Everything of a result record except the run-dependent fields."""
        return {
            key: value
            for key, value in record.items()
            if key not in ("wall_time", "cache_hit")
        }

    def test_suite_by_name_is_bit_identical_to_repro_bench(self, server, capsys):
        document = self._post_batch(server, {"suite": "table2"})
        assert document["suite"] == "table2"
        assert document["totals"]["ok"] == document["totals"]["total"] == 3
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "table2", "--no-cache", "--json"
        )
        assert code == 0
        bench = json.loads(out)
        assert [self._semantic(r) for r in document["results"]] == [
            self._semantic(r) for r in bench["results"]
        ]

    def test_per_task_incremental_splice_summary(self, server):
        # Two copies of one program: the second splices what the first built
        # (both land on the same worker only with workers=1, so assert on
        # the union across the batch instead of a specific record).
        tasks = [
            {"name": "first", "source": CHAIN, "kind": "assertion"},
            {"name": "second", "source": CHAIN, "kind": "analyze"},
        ]
        document = self._post_batch(server, {"tasks": tasks})
        assert [entry["name"] for entry in document["incremental"]] == [
            "first",
            "second",
        ]
        for entry in document["incremental"]:
            assert set(entry) == {"name", "cache_hit", "analyzed", "reused"}
        touched = set()
        for entry in document["incremental"]:
            touched.update(entry["analyzed"])
            touched.update(entry["reused"])
        assert touched == {"leaf", "mid", "main"}

    def test_bare_json_list_is_an_inline_task_list(self, server):
        document = self._post_batch(
            server, [{"source": TRIVIAL, "kind": "assertion", "name": "one"}]
        )
        assert document["suite"] is None
        assert document["totals"] == {
            "total": 1,
            "ok": 1,
            "proved": 1,
            "timeout": 0,
            "error": 0,
            "crash": 0,
            "cache_hits": 0,
            "wall_time": document["totals"]["wall_time"],
        }

    def test_malformed_batch_bodies_get_400(self, server):
        host, port = server.address
        bodies = [
            {"suite": "nope"},
            {"suite": 3},
            {"tasks": []},
            {"tasks": [{"source": ""}]},
            {"tasks": "not-a-list"},
            {"suite": "table2", "depth": 3},  # --depth needs the unroller
            {"suite": "table2", "depth": 2.5, "tool": "unrolling"},
            {"tasks": [{"source": TRIVIAL, "kind": "nope"}]},
            {"tasks": [{"source": TRIVIAL, "procedure": 5}]},
            {"tasks": [{"source": TRIVIAL, "cost_variable": 5}]},
            {"suite": "fig3", "full": "false"},  # a string is not a boolean
        ]
        for body in bodies:
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/batch",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request, timeout=30)
            assert error.value.code == 400, body


def _inline(task: AnalysisTask) -> dict:
    """``task`` as a client writes it in an inline ``POST /v1/batch`` list."""
    return {
        "name": task.name,
        "source": task.source,
        "kind": task.kind,
        "procedure": task.procedure,
        "cost_variable": task.cost_variable,
        "substitutions": dict(task.substitutions),
        "params": dict(task.params),
        "suite": task.suite,
    }


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


class TestBatchBodies:
    """``POST /v1/batch`` bodies parse to the tasks ``repro bench`` runs, so
    a served batch and a local bench share result-cache entries."""

    @pytest.mark.parametrize(
        "task", ALL_ROWS, ids=[f"{task.suite}/{task.name}" for task in ALL_ROWS]
    )
    def test_inline_row_is_the_suite_task(self, task):
        body = json.dumps({"tasks": [_inline(task)]}).encode("utf-8")
        label, tasks, deadline_ms = tasks_from_batch_request(body)
        assert (label, deadline_ms) == (None, None)
        assert tasks == [task]
        assert cache_key(tasks[0], ChoraOptions()) == cache_key(task, ChoraOptions())

    @pytest.mark.parametrize(
        "suite, tool, depth",
        SUITE_TOOLS,
        ids=[f"{suite}-{tool}" for suite, tool, _ in SUITE_TOOLS],
    )
    def test_suite_reference_and_inline_list_agree(self, suite, tool, depth):
        reference = {"suite": suite, "tool": tool, "full": True}
        if depth is not None:
            reference["depth"] = depth
        label, by_reference, _ = tasks_from_batch_request(
            json.dumps(reference).encode("utf-8")
        )
        assert label == suite
        assert by_reference == suite_tasks(suite, True, tool, depth)
        inline = [_inline(task) for task in by_reference]
        _, by_list, _ = tasks_from_batch_request(json.dumps(inline).encode("utf-8"))
        assert by_list == by_reference
        assert len({cache_key(task, ChoraOptions()) for task in by_list}) == len(by_list)


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

    def _url(self, server):
        host, port = server.address
        return f"http://{host}:{port}"

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

    def test_client_prefers_v1(self, server):
        with ServiceClient(self._url(server)) as client:
            with pytest.raises(ServiceHTTPError) as error:
                client.request("GET", "nope")
            assert error.value.code == "not_found"
            # One attempt under /v1: no second, unversioned request.
            assert client.metrics().document["responses"]["4xx"] == 1

    def test_batch_via_client_matches_direct_post(self, server):
        tasks = [{"name": "toy", "source": TRIVIAL, "kind": "assertion"}]
        with ServiceClient(self._url(server)) as client:
            document = client.batch({"tasks": tasks}).document
        assert document["totals"]["ok"] == 1


class TestBackpressure:
    def test_saturated_queue_gets_429_with_retry_after(self):
        """Acceptance: a full admission queue answers 429 immediately —
        never an unbounded hang — and the slot is reclaimed afterwards."""
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool, backlog=0)
        host, port = server.address
        url = f"http://{host}:{port}"
        try:
            assert server.capacity == 1
            occupied = threading.Thread(
                target=lambda: ServiceClient(url).analyze(
                    {
                        "source": "ignored",
                        "kind": "service-sleep",
                        "params": {"seconds": 3},
                    }
                ),
                daemon=True,
            )
            occupied.start()
            # Wait until the sleeper is actually admitted.
            with ServiceClient(url) as client:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    metrics = client.metrics().document
                    if metrics["queue"]["in_flight"] == 1:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("the sleeper request was never admitted")
                with pytest.raises(ServiceHTTPError) as error:
                    client.analyze({"source": TRIVIAL})
                assert error.value.status == 429
                assert error.value.code == "queue_full"
                assert error.value.retry_after is not None
                assert error.value.retry_after >= 1
                assert error.value.detail["capacity"] == 1
                occupied.join(30)
                # The slot is reclaimed: the same request is served now.
                record = client.analyze({"source": TRIVIAL}).document
                assert record["outcome"] == "ok"
                assert client.metrics().document["rejected_429"] == 1
        finally:
            _stop_server(server, thread)

    def test_non_admission_routes_answer_while_saturated(self):
        """healthz/metrics/lint bypass admission: the SLO surface stays
        observable, and lint answers, exactly when the service is
        overloaded."""
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool, backlog=0)
        host, port = server.address
        url = f"http://{host}:{port}"
        try:
            occupied = threading.Thread(
                target=lambda: ServiceClient(url).analyze(
                    {
                        "source": "ignored",
                        "kind": "service-sleep",
                        "params": {"seconds": 3},
                    }
                ),
                daemon=True,
            )
            occupied.start()
            with ServiceClient(url) as client:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.metrics().document["queue"]["in_flight"] == 1:
                        break
                    time.sleep(0.02)
                assert client.healthz().document["status"] == "ok"
                assert client.metrics().document["pool"]["workers"] == 1
                # Lint takes no admission slot, so it must not wait for the
                # analysis holding the only one.
                linted = client.request("POST", "lint", {"source": TRIVIAL})
                assert linted.document["ok"] is True
                assert client.metrics().document["queue"]["in_flight"] == 1
            occupied.join(30)
        finally:
            _stop_server(server, thread)


class TestDeadlines:
    def test_expired_deadline_is_504_and_the_slot_is_reclaimed(self):
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        host, port = server.address
        url = f"http://{host}:{port}"
        try:
            with ServiceClient(url) as client:
                with pytest.raises(ServiceHTTPError) as error:
                    client.analyze(
                        {
                            "source": "ignored",
                            "kind": "service-sleep",
                            "params": {"seconds": 60},
                        },
                        deadline_ms=300,
                    )
                assert error.value.status == 504
                assert error.value.code == "deadline_exceeded"
                assert error.value.detail["deadline_ms"] == 300
                assert error.value.detail["result"]["outcome"] == "timeout"
                # The hung worker was killed and replaced, and the
                # admission slot released: the service still serves.
                record = client.analyze({"source": TRIVIAL}).document
                assert record["outcome"] == "ok"
                metrics = client.metrics().document
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
        host, port = server.address
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                record = client.analyze(
                    {
                        "source": "ignored",
                        "kind": "service-sleep",
                        "params": {"seconds": 60},
                    },
                    deadline_ms=60_000,
                ).document
            assert record["outcome"] == "timeout"
            assert "0.3" in record["detail"]
        finally:
            _stop_server(server, thread)

    def test_malformed_deadlines_are_400(self):
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
        finally:
            _stop_server(server, thread)

    def test_batch_deadline_bounds_the_whole_batch(self):
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        host, port = server.address
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                with pytest.raises(ServiceHTTPError) as error:
                    client.batch(
                        {
                            "tasks": [
                                {
                                    "name": f"sleep{i}",
                                    "source": "ignored",
                                    "kind": "service-sleep",
                                    "params": {"seconds": 60},
                                }
                                for i in range(2)
                            ]
                        },
                        deadline_ms=500,
                    )
                assert error.value.status == 504
                assert error.value.code == "deadline_exceeded"
                assert error.value.detail["totals"]["timeout"] >= 1
        finally:
            _stop_server(server, thread)

    @pytest.mark.parametrize("route", ["analyze", "batch"])
    def test_waiting_for_a_worker_counts_against_the_deadline(self, route):
        """The deadline anchors at admission: a request queued behind a
        busy worker times out when its budget runs out, without taking
        (and then killing) the worker."""
        pool = WorkerPool(workers=1)
        server, thread = _start_server(pool)
        host, port = server.address
        url = f"http://{host}:{port}"
        holder = threading.Thread(
            target=lambda: ServiceClient(url).analyze(
                {"source": "ignored", "kind": "service-sleep", "params": {"seconds": 2}}
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
            with ServiceClient(url) as client:
                deadline = time.monotonic() + 10
                while client.metrics().document["workers"]["busy"] != 1:
                    assert time.monotonic() < deadline, "the holder never started"
                    time.sleep(0.02)
                started = time.monotonic()
                with pytest.raises(ServiceHTTPError) as error:
                    if route == "analyze":
                        client.analyze(task, deadline_ms=1000)
                    else:
                        client.batch({"tasks": [task]}, deadline_ms=1000)
                elapsed = time.monotonic() - started
            assert error.value.status == 504
            assert error.value.code == "deadline_exceeded"
            assert elapsed < 1.5
            holder.join(30)
            assert pool.stats_dict()["restarts"] == 0
        finally:
            _stop_server(server, thread)


class TestMetrics:
    def test_percentiles_under_concurrent_keep_alive_clients(self):
        pool = WorkerPool(workers=2)
        server, thread = _start_server(pool)
        host, port = server.address
        url = f"http://{host}:{port}"
        requests_per_client, clients = 4, 3
        try:
            def hammer():
                with ServiceClient(url) as client:
                    for _ in range(requests_per_client):
                        assert (
                            client.analyze({"source": TRIVIAL}).document["outcome"]
                            == "ok"
                        )

            threads = [
                threading.Thread(target=hammer, daemon=True) for _ in range(clients)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(120)
            with ServiceClient(url) as client:
                metrics = client.metrics().document
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
        host, port = server.address
        clients, rounds = 8, 15
        sleep0 = {"source": "ignored", "kind": "service-sleep", "params": {"seconds": 0}}
        ids: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def hammer():
                with ServiceClient(f"http://{host}:{port}") as client:
                    for _ in range(rounds):
                        ids.append(client.healthz().request_id)
                        ids.append(client.analyze(sleep0).request_id)

            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(120)
            assert not any(worker.is_alive() for worker in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                metrics = client.metrics().document
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
            with ServiceClient(f"http://{host}:{port}") as client:
                metrics = client.metrics().document
            assert metrics["responses"]["4xx"] >= 1
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
        host, port = server.address
        with ServiceClient(f"http://{host}:{port}") as client:
            before = client.metrics().document["responses"]
            ((status, headers, body),) = _responses(_exchange(server.address, data))
            after = client.metrics().document["responses"]
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


class TestBatchCli:
    @pytest.fixture()
    def server(self):
        pool = WorkerPool(workers=2)
        server = AnalysisServer(pool, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.close()
        thread.join(5)

    def _url(self, server):
        host, port = server.address
        return f"http://{host}:{port}"

    def test_remote_suite_matches_local_bench_output(self, server, capsys):
        code, out, _ = run_cli(
            capsys, "batch", "--url", self._url(server), "--suite", "table2", "--json"
        )
        assert code == 0
        remote = json.loads(out)
        assert remote["suite"] == "table2"
        assert remote["totals"]["ok"] == remote["totals"]["total"] == 3
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "table2", "--no-cache", "--json"
        )
        assert code == 0
        local = json.loads(out)
        semantic = lambda r: {  # noqa: E731
            k: v for k, v in r.items() if k not in ("wall_time", "cache_hit")
        }
        assert [semantic(r) for r in remote["results"]] == [
            semantic(r) for r in local["results"]
        ]

    def test_inline_task_file(self, server, capsys, tmp_path):
        tasks = tmp_path / "tasks.json"
        tasks.write_text(
            json.dumps([{"name": "toy", "source": TRIVIAL, "kind": "assertion"}]),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "batch", "--url", self._url(server), "--tasks", str(tasks)
        )
        assert code == 0
        assert "toy" in out and "1/1 ok" in out

    def test_suite_and_tasks_are_mutually_exclusive(self, server, capsys, tmp_path):
        code, _, err = run_cli(capsys, "batch", "--url", self._url(server))
        assert code == 2 and "exactly one" in err

    def test_suite_options_are_rejected_with_inline_tasks(
        self, server, capsys, tmp_path
    ):
        """Regression: --tool/--depth/--full with --tasks used to be
        silently ignored, mislabelling what actually ran."""
        tasks = tmp_path / "tasks.json"
        tasks.write_text(
            json.dumps([{"name": "toy", "source": TRIVIAL, "kind": "assertion"}]),
            encoding="utf-8",
        )
        for extra in (["--tool", "unrolling"], ["--depth", "8"], ["--full"]):
            code, _, err = run_cli(
                capsys,
                "batch", "--url", self._url(server), "--tasks", str(tasks), *extra,
            )
            assert code == 2, extra
            assert "--suite" in err

    def test_unreachable_service_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "batch",
            "--url",
            "http://127.0.0.1:1",
            "--suite",
            "table2",
            "--http-timeout",
            "2",
        )
        assert code == 2
        assert "cannot reach" in err

    def test_service_side_errors_are_reported(self, server, capsys, tmp_path):
        tasks = tmp_path / "tasks.json"
        tasks.write_text(json.dumps([{"source": 5}]), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "batch", "--url", self._url(server), "--tasks", str(tasks)
        )
        assert code == 2
        assert "400" in err

    def test_non_object_error_bodies_are_reported_cleanly(self, capsys):
        """Regression: a proxy answering errors with a JSON array/string
        body used to raise AttributeError instead of the exit-2 report."""
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class ArrayError(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.dumps(["upstream unavailable"]).encode("utf-8")
                self.send_response(503)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), ArrayError)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            code, _, err = run_cli(
                capsys, "batch", "--url", f"http://{host}:{port}",
                "--suite", "table2",
            )
            assert code == 2
            assert "503" in err
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(5)


class TestWarmEngineCli:
    def test_bench_engine_warm_matches_pool_verdicts(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--suite",
            "table2",
            "--engine",
            "warm",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path / "warm"),
            "--json",
        )
        assert code == 0
        warm = json.loads(out)
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--suite",
            "table2",
            "--cache-dir",
            str(tmp_path / "cold"),
            "--json",
        )
        assert code == 0
        cold = json.loads(out)
        assert warm["engine"] == "warm"
        warm_verdicts = [
            (r["name"], r["outcome"], r["proved"]) for r in warm["results"]
        ]
        cold_verdicts = [
            (r["name"], r["outcome"], r["proved"]) for r in cold["results"]
        ]
        assert warm_verdicts == cold_verdicts
