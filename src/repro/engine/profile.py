"""Perf tracking: timing records, BENCH_*.json files and the regression gate.

The perf trajectory of the reproduction is a tracked, machine-readable
artefact: every ``repro profile`` run appends one *entry* to an append-only
JSON file (``benchmarks/perf/BENCH_table2.json`` and friends), so the history
of a suite's wall-clock — before and after each optimisation — lives in the
repository next to the code that produced it.

Two kinds of entries exist:

* **suite entries** — per-row wall times of one benchmark suite, built from
  the :class:`~repro.engine.batch.BatchResult` records of a cold (uncached)
  engine run;
* **micro entries** — timings of the deterministic hull/projection
  micro-benchmarks defined here, which exercise the polyhedral hot path
  (Fourier–Motzkin elimination, the lifted hull construction, LP-based
  minimization, DNF enumeration, exact satisfiability) in isolation.

:func:`compare_entries` implements the regression gate used by CI: the
current entry is compared row-by-row against the last committed entry and
any slow-down beyond the threshold fails the run.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .batch import BatchResult, summarize_batch

__all__ = [
    "DEFAULT_PERF_DIR",
    "MICRO_BENCHMARKS",
    "Regression",
    "append_entry",
    "bench_path",
    "compare_entries",
    "engine_comparison_entry",
    "load_entries",
    "micro_entry",
    "percentile",
    "run_micro_benchmarks",
    "suite_entry_record",
]

#: Where BENCH_*.json files live unless the caller overrides it.
DEFAULT_PERF_DIR = Path("benchmarks") / "perf"

#: Schema version of the perf entries (bump on incompatible shape changes).
PERF_SCHEMA_VERSION = 1


def bench_path(directory: Path | str, name: str) -> Path:
    """The BENCH file for a suite (or ``micro``) under ``directory``."""
    return Path(directory) / f"BENCH_{name}.json"


def load_entries(path: Path | str) -> list[dict[str, Any]]:
    """All recorded entries of a BENCH file (empty list when absent)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return []
    entries = data.get("entries") if isinstance(data, dict) else None
    return entries if isinstance(entries, list) else []


def append_entry(path: Path | str, entry: dict[str, Any]) -> None:
    """Append one entry to a BENCH file, creating it if needed."""
    path = Path(path)
    entries = load_entries(path)
    entries.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": PERF_SCHEMA_VERSION, "entries": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-th percentile of ``values`` (None when empty).

    Nearest-rank rather than interpolated: every reported latency is a
    latency some request actually saw, which is what an SLO gauge wants.
    Used by the service's ``/metrics`` route and the loadtest report.
    """
    if not values:
        return None
    if not 0 <= q <= 100:
        raise ValueError(f"percentile rank must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered), rank) - 1]


def suite_entry_record(
    suite: str,
    results: Sequence[BatchResult],
    label: str = "",
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> dict[str, Any]:
    """A perf entry summarizing one cold suite run.

    Memo-table statistics are deliberately absent: tasks execute in forked
    worker processes, so the parent's tables see none of the traffic.
    ``timeout`` is the per-row deadline the run was taken under (recorded so
    nightly entries with row budgets are not compared naively against
    unbudgeted ones).
    """
    return {
        "kind": "suite",
        "suite": suite,
        "label": label,
        "created": _timestamp(),
        "jobs": jobs,
        "timeout": timeout,
        "rows": [
            {
                "name": result.name,
                "task_kind": result.kind,
                "outcome": result.outcome,
                "proved": result.proved,
                "bound": result.bound,
                "seconds": round(result.wall_time, 4),
            }
            for result in results
        ],
        "totals": summarize_batch(results),
    }


# ---------------------------------------------------------------------- #
# Cold-engine vs warm-worker comparison (the analysis service's raison
# d'être, recorded next to the other perf history)
# ---------------------------------------------------------------------- #
def engine_comparison_entry(
    suite: str,
    label: str = "",
    repeats: int = 2,
    full: bool = False,
) -> dict[str, Any]:
    """A perf entry comparing cold per-task analysis to warm-worker serving.

    For every benchmark of ``suite`` three timings are recorded as rows:

    * ``<name>/cold`` — one in-process :func:`execute_task` run starting
      from cold memo tables (what each forked batch worker pays);
    * ``<name>/warm-first`` — the first request through a
      :class:`~repro.service.pool.WorkerPool` worker (builds the worker's
      incremental summary store);
    * ``<name>/warm-repeat`` — the best of ``repeats`` repeated requests
      for the same program, where the worker splices every cached
      procedure summary (the service's steady state).

    The entry is informational (CI records it as a non-gating artifact):
    absolute times differ per machine, but ``warm-repeat`` being far below
    ``cold`` is the property ``repro serve`` exists for.
    """
    from ..core import ChoraOptions
    from ..polyhedra.cache import clear_caches
    from ..service import WorkerPool
    from .suites import suite_tasks
    from .tasks import execute_task

    tasks = suite_tasks(suite, full)
    rows: list[dict[str, Any]] = []
    totals = {"cold": 0.0, "warm_first": 0.0, "warm_repeat": 0.0}
    # Exactly one worker: warmth is per-process, so a larger pool would
    # route repeat requests to workers that never saw the program and
    # record cold runs under the warm-repeat label.
    with WorkerPool(workers=1, cache=None) as pool:
        for task in tasks:
            clear_caches(force=True)
            started = time.perf_counter()
            execute_task(task, ChoraOptions())
            cold = time.perf_counter() - started
            clear_caches(force=True)
            warm_first = pool.submit(task).wall_time
            warm_repeat = min(
                pool.submit(task).wall_time for _ in range(max(1, repeats))
            )
            rows.append({"name": f"{task.name}/cold", "seconds": round(cold, 5)})
            rows.append(
                {"name": f"{task.name}/warm-first", "seconds": round(warm_first, 5)}
            )
            rows.append(
                {"name": f"{task.name}/warm-repeat", "seconds": round(warm_repeat, 5)}
            )
            totals["cold"] += cold
            totals["warm_first"] += warm_first
            totals["warm_repeat"] += warm_repeat
    speedup = (
        totals["cold"] / totals["warm_repeat"] if totals["warm_repeat"] else None
    )
    return {
        "kind": "engines",
        "suite": suite,
        "label": label,
        "created": _timestamp(),
        "workers": 1,
        "repeats": repeats,
        "rows": rows,
        "totals": {
            "cold": round(totals["cold"], 5),
            "warm_first": round(totals["warm_first"], 5),
            "warm_repeat": round(totals["warm_repeat"], 5),
            "warm_over_cold_speedup": round(speedup, 2) if speedup else None,
        },
    }


# ---------------------------------------------------------------------- #
# Micro-benchmarks: the polyhedral and formula hot paths in isolation
# ---------------------------------------------------------------------- #
def _micro_symbols(count: int):
    from ..formulas.symbols import Symbol

    return [Symbol(f"m{i}") for i in range(count)]


def _micro_projection_chain() -> None:
    """Eliminate the interior of a 12-variable inequality chain.

    Looped so the row sits well above the gate's noise floor; the memo
    tables are cleared between iterations to keep every round cold.
    """
    from ..polyhedra import LinearConstraint, fourier_motzkin
    from ..polyhedra.cache import clear_caches

    xs = _micro_symbols(12)
    constraints = []
    for a, b in zip(xs, xs[1:]):
        # a <= b <= a + 3, plus a shared bound on every variable.
        constraints.append(LinearConstraint.make({a: 1, b: -1}))
        constraints.append(LinearConstraint.make({b: 1, a: -1}, -3))
    for x in xs:
        constraints.append(LinearConstraint.make({x: 1}, -50))
        constraints.append(LinearConstraint.make({x: -1}, -50))
    for _ in range(8):
        clear_caches(force=True)
        fourier_motzkin.eliminate(constraints, xs[1:-1])


def _micro_hull_ladder() -> None:
    """Join a ladder of shifted boxes with the exact lifted hull."""
    from ..polyhedra import LinearConstraint, Polyhedron
    from ..polyhedra.hull import convex_hull

    xs = _micro_symbols(2)
    boxes = []
    for shift in range(4):
        constraints = []
        for i, x in enumerate(xs):
            low = Fraction(shift + i)
            constraints.append(LinearConstraint.make({x: -1}, low))
            constraints.append(LinearConstraint.make({x: 1}, -(low + 2)))
        boxes.append(Polyhedron(constraints))
    convex_hull(boxes)


def _micro_minimize_redundant() -> None:
    """Minimize a system drowned in entailed constraints."""
    from ..polyhedra import LinearConstraint, fourier_motzkin

    xs = _micro_symbols(4)
    constraints = []
    for x in xs:
        constraints.append(LinearConstraint.make({x: 1}, -10))
        constraints.append(LinearConstraint.make({x: -1}, 0))
    # Sums of the generators: every one of these is entailed by the box.
    for i, a in enumerate(xs):
        for b in xs[i + 1 :]:
            constraints.append(LinearConstraint.make({a: 1, b: 1}, -25))
            constraints.append(LinearConstraint.make({a: 1, b: 2}, -40))
    fourier_motzkin.minimize_constraints(constraints)


def _micro_dnf_product() -> None:
    """Distribute a conjunction of small disjunctions into cubes."""
    from ..formulas.dnf import to_dnf
    from ..formulas.formula import atom_eq, atom_le, conjoin, disjoin
    from ..formulas.polynomial import Polynomial
    from ..formulas.symbols import Symbol

    clauses = []
    for i in range(7):
        x = Polynomial.var(Symbol(f"d{i}"))
        clauses.append(disjoin([atom_le(x), atom_eq(x - 1), atom_le(-x - 1)]))
    formula = conjoin(clauses)
    for _ in range(60):
        to_dnf(formula)


def _micro_compose_chain() -> None:
    """Compose a dozen assignments and guards over four variables.

    Every composition renames both operands onto fresh mid-state symbols,
    so this is the rename path of ``PathSummary`` in isolation.  Looped so
    the row sits well above the gate's noise floor; the fresh-symbol counter
    is restored afterwards so the row shifts no later symbol numbering.
    """
    from ..formulas.formula import atom_le
    from ..formulas.polynomial import Polynomial
    from ..formulas.symbols import pre, preserved_fresh_counter
    from ..formulas.transition import TransitionFormula

    names = ("a", "b", "c", "d")
    steps = []
    for i in range(12):
        target = Polynomial.var(pre(names[i % 4]))
        source = Polynomial.var(pre(names[(i + 1) % 4]))
        if i % 3 == 2:
            steps.append(TransitionFormula.assume(atom_le(target - source - i)))
        else:
            steps.append(TransitionFormula.assign(names[i % 4], target + 2 * source - i))
    with preserved_fresh_counter():
        for _ in range(4):
            chain = steps[0]
            for step in steps[1:]:
                chain = chain.compose(step)


def _micro_exact_infeasible() -> None:
    """Exact satisfiability of an equality-heavy infeasible system."""
    from ..polyhedra import LinearConstraint, lp
    from ..polyhedra.constraint import ConstraintKind

    from ..polyhedra.cache import clear_caches

    xs = _micro_symbols(10)
    constraints = []
    for a, b in zip(xs, xs[1:]):
        # Each variable equals its predecessor plus one ...
        constraints.append(
            LinearConstraint.make({b: 1, a: -1}, -1, ConstraintKind.EQ)
        )
    # ... and the endpoints contradict the accumulated offset.
    constraints.append(LinearConstraint.make({xs[0]: 1}, 0, ConstraintKind.EQ))
    constraints.append(LinearConstraint.make({xs[-1]: 1}, -4))
    for _ in range(15):
        clear_caches(force=True)
        lp.is_satisfiable(constraints)


#: The tier-2 micro-benchmark registry guarded by the CI perf gate.
MICRO_BENCHMARKS: dict[str, Callable[[], None]] = {
    "projection_chain": _micro_projection_chain,
    "hull_ladder": _micro_hull_ladder,
    "minimize_redundant": _micro_minimize_redundant,
    "dnf_product": _micro_dnf_product,
    "compose_chain": _micro_compose_chain,
    "exact_infeasible": _micro_exact_infeasible,
}


def run_micro_benchmarks(repeats: int = 3) -> list[dict[str, Any]]:
    """Time every micro-benchmark (best of ``repeats``, caches cleared).

    The memo caches are force-cleared before every repetition — even inside
    a ``keep_warm`` scope — so the gate measures the cold algorithmic path,
    never a table lookup.
    """
    from ..polyhedra.cache import clear_caches

    rows = []
    for name, function in MICRO_BENCHMARKS.items():
        best = None
        for _ in range(max(1, repeats)):
            clear_caches(force=True)
            started = time.perf_counter()
            function()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        rows.append({"name": name, "seconds": round(best, 5)})
    return rows


def micro_entry(label: str = "", repeats: int = 3) -> dict[str, Any]:
    """A perf entry recording one micro-benchmark sweep."""
    rows = run_micro_benchmarks(repeats)
    return {
        "kind": "micro",
        "suite": "micro",
        "label": label,
        "created": _timestamp(),
        "repeats": repeats,
        "rows": rows,
        "totals": {"seconds": round(sum(r["seconds"] for r in rows), 5)},
    }


# ---------------------------------------------------------------------- #
# The regression gate
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Regression:
    """One row that got slower than the gate allows."""

    name: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.baseline:.4f}s -> {self.current:.4f}s "
            f"({self.ratio:.2f}x)"
        )


def compare_entries(
    baseline: dict[str, Any],
    current: dict[str, Any],
    threshold: float = 0.25,
    min_seconds: float = 0.02,
) -> list[Regression]:
    """Rows of ``current`` that regressed beyond ``threshold`` vs ``baseline``.

    Rows absent from the baseline are skipped; rows faster than
    ``min_seconds`` in the baseline are ignored — at the sub-20ms scale a
    25% delta is scheduler noise, not a code regression.
    """
    base_rows = {row["name"]: row["seconds"] for row in baseline.get("rows", [])}
    regressions = []
    for row in current.get("rows", []):
        reference = base_rows.get(row["name"])
        if reference is None or reference < min_seconds:
            continue
        if row["seconds"] > reference * (1.0 + threshold):
            regressions.append(Regression(row["name"], reference, row["seconds"]))
    return regressions


def latest_entry(
    entries: Sequence[dict[str, Any]], label: Optional[str] = None
) -> Optional[dict[str, Any]]:
    """The newest entry (optionally the newest with a given label)."""
    for entry in reversed(entries):
        if label is None or entry.get("label") == label:
            return entry
    return None
