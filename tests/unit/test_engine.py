"""Unit tests for the batch-analysis engine.

Covers the cache-key contract (stability, content addressing), cache
hit/miss behaviour, per-task timeout / crash / error isolation, result
ordering, determinism of parallel vs. serial runs, the outcome counters,
every fast suite row replayed from the result cache, the suite-task
protocol, and which modules a worker image holds before it forks.  Worker behaviours are exercised through ad-hoc task kinds
registered by this module (workers inherit the registry).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.benchlib.suites import SUITES, get_suite, iter_suite, suite_entry
from repro.core import ChoraOptions
from repro.engine import (
    AnalysisTask,
    BatchEngine,
    ResultCache,
    registered_kinds,
    suite_tasks,
    summarize_batch,
)
from repro.engine.cache import cache_key, make_cache
from repro.engine.batch import OUTCOMES, BatchResult
from repro.engine.tasks import execute_task, register_kind
from repro.lang import parse_program

TRIVIAL = "int main(int n) { assume(n >= 0); int r = n + 1; assert(r >= 1); return r; }"

#: Four fast assertion programs with distinct outcomes, for determinism runs.
DETERMINISM_PROGRAMS = {
    "inc": TRIVIAL,
    "nonneg": "int main(int n) { assume(n >= 2); assert(n * n >= 4); return n; }",
    "unprovable": "int main(int n) { assert(n >= 0); return n; }",
    "double": "int main(int n) { assume(n >= 0); int r = n + n; assert(r >= n); return r; }",
}


@register_kind("test-echo")
def _echo_runner(task, options):
    return {"proved": True, "value": task.param("value")}


@register_kind("test-sleep")
def _sleep_runner(task, options):
    time.sleep(float(task.param("seconds", 60)))
    return {"proved": True}


@register_kind("test-crash")
def _crash_runner(task, options):
    os._exit(3)


@register_kind("test-error")
def _error_runner(task, options):
    raise ValueError("intentional test failure")


def _task(name, kind, **params):
    return AnalysisTask(
        name=name, source="", kind=kind, params=tuple(sorted(params.items()))
    )


class TestOptionsSerialization:
    def test_round_trip(self):
        options = ChoraOptions(use_two_region=False)
        rebuilt = ChoraOptions.from_dict(options.to_dict())
        assert rebuilt == options
        assert rebuilt.fingerprint() == options.fingerprint()

    def test_fingerprint_distinguishes_options(self):
        assert (
            ChoraOptions().fingerprint()
            != ChoraOptions(use_alg4_depth=False).fingerprint()
        )

    def test_hashable(self):
        assert hash(ChoraOptions()) == hash(ChoraOptions())


class TestCacheKey:
    def test_stable_across_calls(self):
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
        assert cache_key(task, ChoraOptions()) == cache_key(task, ChoraOptions())

    def test_name_and_suite_are_not_inputs(self):
        first = AnalysisTask(name="a", source=TRIVIAL, kind="assertion", suite="s1")
        second = AnalysisTask(name="b", source=TRIVIAL, kind="assertion", suite="s2")
        assert cache_key(first, ChoraOptions()) == cache_key(second, ChoraOptions())

    def test_source_kind_and_options_are_inputs(self):
        base = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
        options = ChoraOptions()
        keys = {
            cache_key(base, options),
            cache_key(
                AnalysisTask(name="toy", source=TRIVIAL + " ", kind="assertion"),
                options,
            ),
            cache_key(AnalysisTask(name="toy", source=TRIVIAL, kind="analyze"), options),
            cache_key(base, ChoraOptions(use_two_region=False)),
        }
        assert len(keys) == 4

    def test_key_shape(self):
        key = cache_key(AnalysisTask(name="t", source=TRIVIAL), ChoraOptions())
        assert len(key) == 64
        assert all(character in "0123456789abcdef" for character in key)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        cache.put("0" * 64, {"proved": True}, task_name="toy")
        assert cache.get("0" * 64) == {"proved": True}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / ("1" * 64 + ".json")
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("1" * 64) is None

    def test_make_cache_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        # an explicitly requested directory overrides the environment opt-out
        cache = make_cache(directory=tmp_path)
        assert cache is not None and cache.directory == tmp_path
        assert make_cache() is None
        # and --no-cache overrides everything
        assert make_cache(no_cache=True, directory=tmp_path) is None
        monkeypatch.delenv("REPRO_NO_CACHE")
        assert make_cache() is not None

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("2" * 64, {"a": 1})
        cache.put("3" * 64, {"b": 2})
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0


class TestBatchEngine:
    def test_real_analysis_cache_miss_then_hit(self, tmp_path):
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
        engine = BatchEngine(jobs=2, cache=ResultCache(tmp_path))
        first = engine.run([task])[0]
        assert first.outcome == "ok"
        assert first.proved is True
        assert not first.cache_hit
        second = engine.run([task])[0]
        assert second.cache_hit
        assert second.outcome == "ok"
        assert dict(second.payload) == dict(first.payload)

    def test_results_come_back_in_task_order(self):
        tasks = [
            _task("slowish", "test-sleep", seconds=0.3),
            _task("fast", "test-echo", value=1),
        ]
        results = BatchEngine(jobs=2).run(tasks)
        assert [result.name for result in results] == ["slowish", "fast"]
        assert all(result.outcome == "ok" for result in results)

    def test_timeout_does_not_sink_the_batch(self):
        tasks = [
            _task("hang", "test-sleep", seconds=60),
            _task("fine", "test-echo", value=2),
        ]
        started = time.monotonic()
        results = BatchEngine(jobs=2, timeout=1.0).run(tasks)
        assert time.monotonic() - started < 30
        assert results[0].outcome == "timeout"
        assert "deadline" in results[0].detail
        assert results[1].outcome == "ok"

    def test_crash_does_not_sink_the_batch(self):
        tasks = [
            _task("dies", "test-crash"),
            _task("fine", "test-echo", value=3),
        ]
        results = BatchEngine(jobs=2).run(tasks)
        assert results[0].outcome == "crash"
        assert "code 3" in results[0].detail
        assert results[1].outcome == "ok"

    def test_error_is_reported_with_traceback(self):
        results = BatchEngine(jobs=1).run([_task("broken", "test-error")])
        assert results[0].outcome == "error"
        assert "ValueError" in results[0].detail
        assert "intentional test failure" in results[0].detail

    def test_unknown_kind_is_an_error_result(self):
        results = BatchEngine(jobs=1).run([_task("odd", "no-such-kind")])
        assert results[0].outcome == "error"
        assert "unknown task kind" in results[0].detail

    def test_failed_tasks_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        BatchEngine(jobs=1, timeout=0.5, cache=cache).run(
            [_task("hang", "test-sleep", seconds=60)]
        )
        assert cache.stats()["entries"] == 0

    def test_parallel_output_equals_serial_output(self):
        tasks = [
            AnalysisTask(name=name, source=source, kind="assertion")
            for name, source in DETERMINISM_PROGRAMS.items()
        ]
        serial = BatchEngine(jobs=1).run(tasks)
        parallel = BatchEngine(jobs=4).run(tasks)

        def normalize(results):
            records = []
            for result in results:
                record = result.to_dict()
                record.pop("wall_time")
                records.append(record)
            return records

        assert normalize(parallel) == normalize(serial)
        # and at least one benchmark distinguishes proved from unknown
        verdicts = {result.name: result.proved for result in serial}
        assert verdicts["inc"] is True
        assert verdicts["unprovable"] is False

    def test_summarize_batch(self):
        results = BatchEngine(jobs=2).run(
            [_task("a", "test-echo"), _task("b", "test-error")]
        )
        totals = summarize_batch(results)
        assert totals["total"] == 2
        assert totals["ok"] == 1
        assert totals["error"] == 1
        assert totals["crash"] == 0
        assert totals["cache_hits"] == 0

    def test_summarize_batch_counts_crash_separately_from_error(self):
        results = BatchEngine(jobs=2).run(
            [
                _task("a", "test-echo"),
                _task("b", "test-error"),
                _task("c", "test-crash"),
            ]
        )
        totals = summarize_batch(results)
        assert totals["total"] == 3
        assert totals["error"] == 1
        assert totals["crash"] == 1
        by_name = {result.name: result.outcome for result in results}
        assert by_name == {"a": "ok", "b": "error", "c": "crash"}


class TestOutcomeCounts:
    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_summarize_batch_counts_each_outcome(self, outcome):
        result = BatchResult(name="t", kind="analyze", outcome=outcome, wall_time=0.5)
        totals = summarize_batch([result, result])
        assert set(totals) == {
            "total", "ok", "proved", "timeout", "error", "crash",
            "cache_hits", "wall_time",
        }
        assert totals["total"] == 2
        assert totals[outcome] == 2
        assert sum(totals[other] for other in OUTCOMES) == 2
        assert totals["wall_time"] == 1.0

    def test_pending_records_are_rejected(self):
        """Sharded runs once reported tasks of other shards as ``pending``;
        with sharding gone it is an unknown outcome like any other."""
        assert "pending" not in OUTCOMES
        record = BatchResult(
            name="t", kind="analyze", outcome="ok", wall_time=0.0
        ).to_dict()
        record["outcome"] = "pending"
        with pytest.raises(ValueError, match="unknown outcome"):
            BatchResult.from_dict(record)


FAST_ROWS = suite_tasks("all", full=False)


@pytest.fixture(scope="module")
def fast_suite_runs(tmp_path_factory):
    """The fast suite rows run twice through one cached engine: cold, then
    answered from the result cache."""
    cache = ResultCache(tmp_path_factory.mktemp("fast-suite-cache"))
    engine = BatchEngine(jobs=2, cache=cache)
    cold = engine.run(FAST_ROWS)
    warm = engine.run(FAST_ROWS)
    return cache, cold, warm


class TestFastSuiteThroughTheCache:
    @pytest.mark.parametrize(
        "index",
        range(len(FAST_ROWS)),
        ids=[f"{task.suite}/{task.name}" for task in FAST_ROWS],
    )
    def test_second_run_replays_the_cached_row(self, fast_suite_runs, index):
        _, cold, warm = fast_suite_runs
        assert cold[index].outcome == "ok" and not cold[index].cache_hit
        assert warm[index].outcome == "ok" and warm[index].cache_hit
        assert warm[index].payload == cold[index].payload
        assert (warm[index].proved, warm[index].bound) == (
            cold[index].proved,
            cold[index].bound,
        )

    @pytest.mark.parametrize(
        "index",
        range(len(FAST_ROWS)),
        ids=[f"{task.suite}/{task.name}" for task in FAST_ROWS],
    )
    def test_record_survives_the_batch_wire(self, fast_suite_runs, index):
        """``repro batch`` rebuilds each ``POST /batch`` record with
        ``BatchResult.from_dict``; it must render what the engine printed."""
        _, cold, _ = fast_suite_runs
        record = json.loads(json.dumps(cold[index].to_dict()))
        assert BatchResult.from_dict(record).to_dict() == cold[index].to_dict()

    def test_stats_count_the_entries_of_each_suite(self, fast_suite_runs):
        cache, cold, _ = fast_suite_runs
        stats = cache.stats()
        assert stats["entries"] == len(cold)
        assert stats["suites"] == {"fig3": 5, "table1": 8, "table2": 3}


@register_kind("test-unpicklable")
def _unpicklable_runner(task, options):
    # Lambdas cannot be pickled: the worker's result send must fail, and the
    # failure must come back as this task's error, not as a crash.
    return {"bad": lambda x: x}


class _ExplodesOnLoad:
    """Pickles fine in the worker, raises while unpickling in the parent."""

    def __reduce__(self):
        return (eval, ("1/0",))


@register_kind("test-unpicklable-on-load")
def _unpicklable_on_load_runner(task, options):
    return {"bad": _ExplodesOnLoad()}


class TestSerializationFailureReporting:
    """A payload the pipe cannot carry is an *error*, never a crash."""

    def test_unserializable_payload_is_an_error_with_traceback(self):
        result = BatchEngine().run([_task("bad", "test-unpicklable")])[0]
        assert result.outcome == "error"
        assert "could not be serialized" in result.detail
        # The traceback of the failed pickle is included for debugging.
        assert "pickle" in result.detail.lower() or "Traceback" in result.detail

    def test_undeserializable_payload_is_an_error_not_a_batch_crash(self):
        # The reply deserializes badly in the *parent*; the batch must
        # neither raise nor misreport the worker as crashed.
        results = BatchEngine(jobs=2).run(
            [_task("bad", "test-unpicklable-on-load"), _task("good", "test-echo")]
        )
        by_name = {result.name: result for result in results}
        assert by_name["good"].outcome == "ok"
        assert by_name["bad"].outcome == "error"
        assert "could not be deserialized" in by_name["bad"].detail


class TestTimeoutZero:
    """``timeout=0`` is an immediate deadline, not a disabled one."""

    def test_zero_timeout_times_out(self):
        engine = BatchEngine(timeout=0)
        result = engine.run([_task("slow", "test-sleep", seconds=60)])[0]
        assert result.outcome == "timeout"
        assert "0s deadline" in result.detail
        assert result.wall_time < 30

    def test_none_timeout_still_disables_the_deadline(self):
        engine = BatchEngine(timeout=None)
        result = engine.run([_task("quick", "test-echo")])[0]
        assert result.outcome == "ok"


class TestNoSilentlyShrunkenReports:
    def test_unfilled_slot_becomes_an_explicit_error_record(self):
        class DroppingEngine(BatchEngine):
            """Simulates a result that never lands in its slot."""

            def _reap(self, running, finish):
                def dropping_finish(index, result):
                    if index != 1:
                        finish(index, result)

                super()._reap(running, dropping_finish)

        tasks = [_task(name, "test-echo") for name in ("a", "b", "c")]
        results = DroppingEngine(jobs=2).run(tasks)
        assert [result.name for result in results] == ["a", "b", "c"]
        assert results[0].outcome == results[2].outcome == "ok"
        assert results[1].outcome == "error"
        assert "no result was recorded" in results[1].detail
        totals = summarize_batch(results)
        assert totals["total"] == len(tasks)


class TestBatchResultRecords:
    def test_from_dict_round_trips(self):
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
        result = BatchEngine(jobs=1, cache=None).run([task])[0]
        from repro.engine import BatchResult

        rebuilt = BatchResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()

    def test_from_dict_rejects_malformed_records(self):
        from repro.engine import BatchResult

        with pytest.raises(ValueError):
            BatchResult.from_dict({"name": "x"})
        with pytest.raises(ValueError):
            BatchResult.from_dict(
                {"name": "x", "kind": "analyze", "outcome": "sideways"}
            )
        with pytest.raises(ValueError):
            BatchResult.from_dict(
                {"name": "x", "kind": "analyze", "outcome": "ok", "payload": 3}
            )


class TestTaskProtocol:
    def test_builtin_kinds_registered(self):
        kinds = registered_kinds()
        for kind in (
            "analyze",
            "assertion",
            "assertion-unrolling",
            "complexity",
            "complexity-icra",
        ):
            assert kind in kinds

    def test_execute_task_matches_worker_payload(self):
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="assertion")
        payload = execute_task(task, ChoraOptions())
        batch = BatchEngine(jobs=1).run([task])[0]
        assert dict(batch.payload) == payload

    def test_payload_is_json_serializable(self):
        task = AnalysisTask(name="toy", source=TRIVIAL, kind="analyze")
        payload = execute_task(task, ChoraOptions())
        assert json.loads(json.dumps(payload)) == payload
        assert "summaries" in payload


class TestSuiteProtocol:
    def test_suite_shapes(self):
        assert set(SUITES) == {"table1", "fig3", "table2"}
        assert len(get_suite("table1").entries) == 12
        assert len(get_suite("fig3").entries) == 17
        assert len(get_suite("table2").entries) == 3

    def test_fast_subsets(self):
        assert len(iter_suite("table1")) == 8
        assert len(iter_suite("fig3")) == 5
        assert len(iter_suite("table2")) == 3
        assert len(iter_suite("table1", full=True)) == 12

    def test_all_sources_parse(self):
        for suite in SUITES.values():
            for entry in suite.entries:
                program = parse_program(entry.source)
                assert program.procedures, entry.name

    def test_suite_tasks_all(self):
        tasks = suite_tasks("all", full=False)
        assert len(tasks) == 8 + 5 + 3
        assert {task.suite for task in tasks} == {"table1", "fig3", "table2"}
        full = suite_tasks("all", full=True)
        assert len(full) == 12 + 17 + 3

    def test_suite_tasks_env_gating(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_BENCH", "1")
        assert len(suite_tasks("fig3")) == 17
        monkeypatch.delenv("REPRO_FULL_BENCH")
        assert len(suite_tasks("fig3")) == 5

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            suite_entry("table9", "quad")
        with pytest.raises(KeyError):
            get_suite("table2").entry("missing")

    def test_complexity_entries_carry_procedures(self):
        entry = suite_entry("table1", "subset_sum")
        assert entry.kind == "complexity"
        assert entry.procedure == "subsetSumAux"
        assert dict(entry.substitutions) == {"i": 0, "sum": 0}


#: Runs in a fresh interpreter: the modules ``import repro.cli`` loads, and
#: the ones one fast suite task adds after it.
_IMPORT_PROBE = """
import json, sys
import repro.cli
from repro.benchlib.suites import suite_entry
from repro.engine import AnalysisTask
from repro.engine.tasks import execute_task

floating = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
before = set(sys.modules)
execute_task(AnalysisTask.from_entry(suite_entry("table1", "fibonacci"), suite="table1"))
added = sorted(
    m for m in set(sys.modules) - before
    if m.startswith(("sympy.tensor", "sympy.combinatorics"))
)
print(json.dumps({"floating": floating, "added": added}))
"""


class TestWorkerImage:
    def test_forked_tasks_import_nothing_heavy(self):
        """``import repro.cli`` loads no float LP stack, and a task imports
        no sympy.tensor or sympy.combinatorics module: those are loaded
        before a worker forks, so no fork pays for them."""
        source = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=str(source)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {"floating": [], "added": []}
