"""Table 2: assertion checking on quad, pow2_overflow and height.

Selection and execution go through the batch-engine task protocol, so the
rows are exactly what ``repro bench --suite table2`` runs; the unrolling
baseline reuses the same tasks with the ``assertion-unrolling`` kind.
"""

import pytest

from conftest import run_entry

from repro.benchlib.suites import iter_suite, suite_entry

SELECTED = [entry.name for entry in iter_suite("table2")]


def _run(name: str, kind: str) -> bool:
    params = {"depth": 6} if kind == "assertion-unrolling" else {}
    return run_entry("table2", name, kind, **params)["proved"]


@pytest.mark.parametrize("name", SELECTED)
def test_table2_chora(benchmark, name):
    verdict = benchmark.pedantic(_run, args=(name, "assertion"), rounds=1, iterations=1)
    benchmark.extra_info["proved"] = verdict
    benchmark.extra_info["paper"] = dict(suite_entry("table2", name).paper["verdicts"])
    # The unbounded-recursion benchmarks cannot be proved by unrolling alone;
    # whether this reproduction proves them is pinned by the Table 2 golden
    # (tests/integration/golden/table2.txt).
    assert verdict in (True, False)


@pytest.mark.parametrize("name", SELECTED)
def test_table2_unrolling_baseline(benchmark, name):
    verdict = benchmark.pedantic(
        _run, args=(name, "assertion-unrolling"), rounds=1, iterations=1
    )
    benchmark.extra_info["proved"] = verdict
    # quad/height take symbolic arguments, so bounded unrolling cannot prove them.
    if name in ("quad", "height"):
        assert verdict is False
