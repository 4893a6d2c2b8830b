"""The 16 fast rows, their committed expected answers, and the metrics.

Both workloads analyse the paper's fast rows (Table 1 x8, Fig. 3 x5,
Table 2 x3) as ``repro bench --suite all`` resolves them.  Every answer is
checked against ``expected.json``, which holds a copy of the goldens, so a
verdict that drifts counts as a failed operation instead of a faster one.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from calibrate import Sample

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Row:
    """One fast row: its ``suite/name`` key, engine task and expected answer."""

    key: str
    task: Any  # repro.engine.AnalysisTask
    expected: Mapping[str, Any]


def load_rows() -> list[Row]:
    """The fast rows in suite order, each paired with its expected answer."""
    from repro.engine import suite_tasks

    expected = json.loads(EXPECTED_PATH.read_text())["rows"]
    rows = [
        Row(f"{task.suite}/{task.name}", task, expected.get(f"{task.suite}/{task.name}"))
        for task in suite_tasks("all", full=False)
    ]
    keys = [row.key for row in rows]
    if sorted(keys) != sorted(expected):
        raise SystemExit(
            f"perfbench: the fast rows {sorted(keys)} do not match"
            f" {EXPECTED_PATH.name} {sorted(expected)}"
        )
    return rows


def answer_matches(expected: Mapping[str, Any], payload: Mapping[str, Any]) -> bool:
    """Whether ``payload`` gives the expected verdict or bound."""
    return all(payload.get(name) == value for name, value in expected.items())


def normalized(payload: Any) -> Any:
    """``payload`` as a JSON round trip gives it back (for equality checks)."""
    return json.loads(json.dumps(payload, sort_keys=True))


@dataclass
class Unit:
    """One timed unit of the measured phase: a row or a request."""

    key: str
    kind: str
    sample: Sample
    ok: bool
    payload: Any = field(default=None, repr=False)

    def to_dict(self) -> dict[str, Any]:
        return {"key": self.key, "class": self.kind, "ok": self.ok, **self.sample.to_dict()}


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def third_medians(values: Sequence[float]) -> tuple[float, float, float]:
    """Medians of the fastest, middle and slowest third of ``values``."""
    ordered = sorted(values)
    cut = len(ordered) // 3
    return (
        statistics.median(ordered[:cut]),
        statistics.median(ordered[cut : len(ordered) - cut]),
        statistics.median(ordered[len(ordered) - cut :]),
    )


def unit_medians(
    units: Sequence[Unit], seconds_of: Callable[[Sample], float]
) -> dict[tuple[str, str], float]:
    """Each distinct unit's median time over its repetitions, by (class, row)."""
    repeats: dict[tuple[str, str], list[float]] = {}
    for unit in units:
        repeats.setdefault((unit.kind, unit.key), []).append(seconds_of(unit.sample))
    return {unit: statistics.median(values) for unit, values in repeats.items()}


def calibrated(sample: Sample) -> float:
    return sample.calibrated_s


def raw(sample: Sample) -> float:
    return sample.raw_s


def end_to_end(
    setup_s: float,
    units: Sequence[Unit],
    seconds_of: Callable[[Sample], float],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Each distinct unit (a row, or a request class on a row) is repeated
    once per pass or round; it enters every metric at the median of its
    repetitions, so one unit disturbed by a neighbour moves nothing.
    ``wall_s`` is then the time of one pass (one round) of the workload.
    """
    medians = list(unit_medians(units, seconds_of).values())
    fast, mid, slow = third_medians(medians)
    return {
        "setup_s": setup_s,
        "wall_s": math.fsum(medians),
        "verdict_geomean_ms": geomean(medians) * 1000,
        "fast_third_p50_ms": fast * 1000,
        "mid_third_p50_ms": mid * 1000,
        "slow_third_p50_ms": slow * 1000,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_child_rss_mb() -> float:
    """Peak RSS of the largest waited-for descendant process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
