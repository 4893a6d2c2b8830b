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

TRIVIAL = "int main(int n) { assume(n >= 0); int r = n + 1; assert(r >= 1); return r; }"


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
        code, _, err = run_cli(capsys, "analyze", str(program), "--sub", "n=x")
        assert code == 2
        assert "--sub" in err

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


class TestProfileCommand:
    def test_requires_a_target(self, capsys):
        code, _, err = run_cli(capsys, "profile")
        assert code == 2
        assert "--suite" in err

    def test_micro_records_entries_and_checks(self, capsys, tmp_path):
        argv = [
            "profile", "--micro", "--repeats", "1",
            "--perf-dir", str(tmp_path), "--label", "first",
        ]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        bench_file = tmp_path / "BENCH_micro.json"
        assert bench_file.exists()
        data = json.loads(bench_file.read_text(encoding="utf-8"))
        assert len(data["entries"]) == 1
        assert {row["name"] for row in data["entries"][0]["rows"]} >= {
            "projection_chain", "hull_ladder", "minimize_redundant",
            "compose_chain",
        }
        # A second run with --check compares against the first entry; the
        # same code cannot regress against itself beyond the huge threshold.
        code, out, _ = run_cli(
            capsys,
            "profile", "--micro", "--repeats", "1", "--perf-dir", str(tmp_path),
            "--check", "--threshold", "10000",
        )
        assert code == 0
        data = json.loads(bench_file.read_text(encoding="utf-8"))
        assert len(data["entries"]) == 2
        assert "baseline" in out and "ratio" in out

    def test_first_entry_creates_the_perf_directory(self, tmp_path):
        """The perf history is per checkout and not committed, so the first
        recorded entry must create its directory."""
        from repro.engine import profile as perf

        path = perf.bench_path(tmp_path / "benchmarks" / "perf", "micro")
        entry = {"kind": "micro", "label": "first", "rows": []}
        perf.append_entry(path, entry)
        assert perf.load_entries(path) == [entry]

    def test_regression_gate_fails_on_slowdown(self, tmp_path, capsys):
        from repro.engine import profile as perf

        path = perf.bench_path(tmp_path, "micro")
        perf.append_entry(
            path,
            {
                "kind": "micro", "suite": "micro", "label": "fabricated",
                "created": "2026-01-01T00:00:00Z", "repeats": 1,
                "rows": [{"name": "projection_chain", "seconds": 0.000001}],
                "totals": {"seconds": 0.000001},
            },
        )
        code, _, err = run_cli(
            capsys,
            "profile", "--micro", "--repeats", "1",
            "--perf-dir", str(tmp_path), "--check",
        )
        # Anything real is slower than a fabricated micro-second baseline...
        # except that sub-20ms baseline rows are ignored as noise, so this
        # must still pass.
        assert code == 0

        perf.append_entry(
            path,
            {
                "kind": "micro", "suite": "micro", "label": "fabricated-slow",
                "created": "2026-01-01T00:00:00Z", "repeats": 1,
                "rows": [{"name": "projection_chain", "seconds": 0.05}],
                "totals": {"seconds": 0.05},
            },
        )
        code, _, err = run_cli(
            capsys,
            "profile", "--micro", "--repeats", "1",
            "--perf-dir", str(tmp_path), "--check", "--threshold", "-99.9",
        )
        assert code == 1
        assert "PERF REGRESSION" in err


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
