"""End-to-end tests of the ``repro`` CLI and the engine smoke path.

The fast tests drive :func:`repro.cli.main` in-process; the slow test is the
CI acceptance scenario — ``repro bench --suite table2 --jobs 2 --json`` runs
every benchmark through worker processes, and an immediate re-run is served
entirely from the result cache, measurably faster.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import AnalysisTask
from repro.engine.tasks import register_kind

TRIVIAL = "int main(int n) { assume(n >= 0); int r = n + 1; assert(r >= 1); return r; }"


# Registered at import time, so the engine's forked workers inherit them.
@register_kind("cli-crash")
def _crash_runner(task, options):
    os._exit(3)


@register_kind("cli-error")
def _error_runner(task, options):
    raise ValueError("intentional test failure")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFastCommands:
    def test_suites_lists_the_three_artefacts(self, capsys):
        code, out, _ = run_cli(capsys, "suites")
        assert code == 0
        for name in ("table1", "fig3", "table2"):
            assert name in out

    def test_analyze_text_output(self, capsys, tmp_path):
        program = tmp_path / "toy.c"
        program.write_text(TRIVIAL, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "analyze", str(program), "--cache-dir", str(tmp_path / "cache")
        )
        assert code == 0
        assert "=== main ===" in out
        assert "PROVED" in out

    def test_analyze_json_and_cache_hit(self, capsys, tmp_path):
        program = tmp_path / "toy.c"
        program.write_text(TRIVIAL, encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        code, out, _ = run_cli(
            capsys, "analyze", str(program), "--json", "--cache-dir", cache_dir
        )
        assert code == 0
        first = json.loads(out)
        assert first["outcome"] == "ok"
        assert first["proved"] is True
        assert first["cache_hit"] is False
        code, out, _ = run_cli(
            capsys, "analyze", str(program), "--json", "--cache-dir", cache_dir
        )
        second = json.loads(out)
        assert second["cache_hit"] is True
        assert second["payload"] == first["payload"]

    def test_analyze_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "absent.c"))
        assert code == 2
        assert "cannot read" in err

    def test_analyze_bad_substitution(self, capsys, tmp_path):
        program = tmp_path / "toy.c"
        program.write_text(TRIVIAL, encoding="utf-8")
        # A repeated name used to be sorted and passed to dict(), so the
        # larger value won whatever the order.
        for subs, named in (
            (["n=x"], "n=x"),
            (["n=5", "n=9"], "'n'"),
            (["n=9", "n=5"], "'n'"),
        ):
            arguments = [part for sub in subs for part in ("--sub", sub)]
            code, _, err = run_cli(
                capsys, "analyze", str(program), *arguments, "--no-cache"
            )
            assert code == 2, subs
            assert "--sub" in err and named in err, err

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "0 entries" in out
        # The directory is always reported, even for an empty cache.
        assert str(tmp_path) in out
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "removed 0" in out

    def test_cache_stats_reports_per_suite_counts(self, capsys, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"proved": True}, task_name="x", suite="table2")
        cache.put("b" * 64, {"proved": True}, task_name="y", suite="table2")
        cache.put("c" * 64, {"proved": True}, task_name="z")
        code, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert code == 0
        assert str(tmp_path) in out
        assert "3 entries" in out
        assert "table2: 2" in out
        assert "(none): 1" in out

    def test_timeout_zero_is_an_immediate_deadline(self, capsys, tmp_path):
        program = tmp_path / "toy.c"
        program.write_text(TRIVIAL, encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "analyze",
            str(program),
            "--no-cache",
            "--timeout",
            "0",
        )
        # 0 seconds means "time out immediately", never "no deadline".
        assert code == 1
        assert "timeout" in (out + err)

    def test_negative_timeout_is_rejected(self, capsys, tmp_path):
        program = tmp_path / "toy.c"
        program.write_text(TRIVIAL, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "analyze", str(program), "--timeout", "-1")
        assert excinfo.value.code == 2
        assert "timeout must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--suite", "table2", "--jobs", "0"], "--jobs/-j: must be >= 1"),
            (["bench", "--suite", "table2", "--jobs", "-3"], "must be >= 1, got -3"),
            (["fuzz", "--jobs", "0"], "--jobs/-j: must be >= 1"),
            (["serve", "--workers", "0"], "--workers: must be >= 1"),
            (["serve", "--backlog", "-4"], "--backlog: must be >= 0"),
        ],
        ids=["bench-jobs-0", "bench-jobs-neg", "fuzz-jobs-0", "serve-workers-0",
             "serve-backlog-neg"],
    )
    def test_counts_below_their_minimum_exit_2(self, capsys, argv, message):
        """The engine and the pool would clamp such a count, and the CLI
        would report a value other than the one that ran."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "suites"],
            capture_output=True,
            text=True,
            env=environment,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "table2" in completed.stdout


class TestBenchTool:
    def test_tool_maps_suite_kinds(self):
        from repro.engine.suites import suite_tasks

        assert {t.kind for t in suite_tasks("table1", full=True, tool="icra")} == {
            "complexity-icra"
        }
        assert {t.kind for t in suite_tasks("table2", tool="icra")} == {
            "assertion-icra"
        }
        tasks = suite_tasks("table2", tool="unrolling", depth=2)
        assert {t.kind for t in tasks} == {"assertion-unrolling"}
        assert all(t.param("depth") == 2 for t in tasks)
        assert {t.kind for t in suite_tasks("table2", tool="chora")} == {"assertion"}

    def test_unknown_tool_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "table2", "--tool", "nonsense"])

    def test_unrolling_on_complexity_suite_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--suite", "table1", "--tool", "unrolling"
        )
        assert code == 2
        assert "no mode" in err

    def test_depth_is_rejected_for_non_unrolling_tools(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--suite", "table2", "--tool", "icra", "--depth", "4"
        )
        assert code == 2
        assert "--depth" in err

    def test_bench_has_no_shard_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--suite", "table2", "--shard", "1/2"])
        assert exit_info.value.code == 2
        assert "--shard" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "loadtest", "batch"])
    def test_deleted_timing_commands_are_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bench_runs_the_unrolling_baseline(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "--suite", "table2", "--tool", "unrolling",
            "--depth", "2", "--json", "--no-cache",
        )
        assert code == 0
        data = json.loads(out)
        assert data["tool"] == "unrolling"
        assert [r["kind"] for r in data["results"]] == ["assertion-unrolling"] * 3
        assert data["totals"]["error"] == 0


class TestBenchExitStatus:
    """The nightly full-suite runs fail on a broken row through this status."""

    @pytest.mark.parametrize(
        "kind, outcome", [("cli-crash", "crash"), ("cli-error", "error")]
    )
    def test_a_failed_row_exits_1(self, capsys, monkeypatch, kind, outcome):
        tasks = [
            AnalysisTask(name="fine", source=TRIVIAL, kind="analyze"),
            AnalysisTask(name="broken", source="", kind=kind),
        ]
        monkeypatch.setattr("repro.cli.suite_tasks", lambda *args, **kwargs: tasks)
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "table2", "--no-cache", "--json"
        )
        assert code == 1
        results = json.loads(out)["results"]
        assert [(r["name"], r["outcome"]) for r in results] == [
            ("fine", "ok"),
            ("broken", outcome),
        ]

    def test_timed_out_rows_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "--suite", "table2", "--timeout", "0", "--no-cache", "--json",
        )
        assert code == 0
        totals = json.loads(out)["totals"]
        assert totals["timeout"] == totals["total"] == 3

    def test_uncached_json_times_every_row(self, capsys, tmp_path):
        """``--no-cache --json`` is how one suite's per-row wall times are read."""
        code, out, _ = run_cli(
            capsys,
            "bench", "--suite", "table2", "--no-cache", "--json",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        document = json.loads(out)
        results = document["results"]
        assert len(results) == 3
        for row in results:
            assert row["outcome"] == "ok"
            assert row["cache_hit"] is False
            assert row["wall_time"] > 0
        assert document["totals"]["wall_time"] == pytest.approx(
            sum(row["wall_time"] for row in results), abs=0.01
        )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
class TestBenchSmoke:
    def test_table2_parallel_then_cached(self, capsys, tmp_path):
        """The acceptance scenario: cold parallel batch, then all cache hits."""
        cache_dir = str(tmp_path / "cache")
        argv = [
            "bench", "--suite", "table2", "--jobs", "2", "--json",
            "--cache-dir", cache_dir,
        ]
        started = time.monotonic()
        code, out, _ = run_cli(capsys, *argv)
        cold_elapsed = time.monotonic() - started
        assert code == 0
        cold = json.loads(out)
        assert cold["totals"]["total"] == 3
        assert cold["totals"]["ok"] == 3
        assert cold["totals"]["cache_hits"] == 0
        assert {result["name"] for result in cold["results"]} == {
            "quad", "pow2_overflow", "height",
        }
        for result in cold["results"]:
            assert result["outcome"] == "ok"
            assert result["proved"] in (True, False)

        started = time.monotonic()
        code, out, _ = run_cli(capsys, *argv)
        warm_elapsed = time.monotonic() - started
        assert code == 0
        warm = json.loads(out)
        assert warm["totals"]["cache_hits"] == 3
        assert [r["name"] for r in warm["results"]] == [
            r["name"] for r in cold["results"]
        ]
        assert [r["proved"] for r in warm["results"]] == [
            r["proved"] for r in cold["results"]
        ]
        # The warm run is served from the cache and must be much faster.
        assert warm_elapsed < cold_elapsed / 2
