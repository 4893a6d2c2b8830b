"""Golden-output tests for the rendered Table 1 / Table 2 reports.

The rendered tables set this reproduction's verdicts and bounds beside the
paper's Table 1 / Table 2 values; formatting drift, precision changes and
verdict flips all show up as a diff against the checked-in goldens.  The
snapshots cover the fast suite rows without timing columns, so they are
bit-stable across machines.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/integration/test_reporting_golden.py
"""

import os
from pathlib import Path


from repro.core import ChoraOptions
from repro.engine import execute_task, suite_tasks
from repro.engine.batch import BatchResult
from repro.reporting import render_table1, render_table2

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_suite_serial(suite: str) -> list[BatchResult]:
    """The fast rows of a suite, serially and uncached (deterministic)."""
    results = []
    for task in suite_tasks(suite, full=False):
        payload = execute_task(task, ChoraOptions())
        results.append(BatchResult.succeeded(task, payload, 0.0, False))
    return results


def assert_matches_golden(rendered: str, filename: str) -> None:
    path = GOLDEN_DIR / filename
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered + "\n", encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert rendered + "\n" == expected, (
        f"rendered table deviates from {path.name}; run with "
        "REPRO_UPDATE_GOLDENS=1 if the change is intentional"
    )


class TestGoldenTables:
    def test_table1_fast_rows(self):
        rendered = render_table1(run_suite_serial("table1"))
        assert_matches_golden(rendered, "table1.txt")

    def test_table2_fast_rows(self):
        rendered = render_table2(run_suite_serial("table2"))
        assert_matches_golden(rendered, "table2.txt")

    def test_time_columns_are_opt_in(self):
        """The golden renderings must not depend on wall-clock."""
        results = [
            BatchResult(
                name="height", kind="assertion", outcome="ok",
                wall_time=1.23, proved=True, suite="table2",
            )
        ]
        plain = render_table2(results)
        timed = render_table2(results, include_times=True)
        assert "1.23" not in plain
        assert "1.23s" in timed
