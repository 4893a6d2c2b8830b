"""paper-cold: every fast row analysed cold, in its own BatchEngine fork.

This is ``repro bench --suite all``: the benchmark process imports
``repro.cli`` (the image ``repro bench`` forks its workers from) and runs
each row through ``BatchEngine(jobs=1, cache=None)`` one at a time, with a
deadline far above any row.  The benchmark process analyses nothing, so
every fork starts from the same cold image.  Polyhedra, abstraction, core
and recurrence do nearly all the work; the engine adds a fork and a pipe
per row; no service code runs.

Set-up is a fresh interpreter until ``import repro.cli`` returns (what every
``repro`` command pays first), timed :data:`IMPORTS` times; ``setup_s`` is
the median.  The measured phase is a whole number of passes over the rows,
each pass in a seeded order.

The traced run adds one pass in which each fork runs its row under
:mod:`tracing` (wrappers installed in the parent before forking) and hands
its spans and memo counters back through the engine's own result channel.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Mapping

import tracing
from calibrate import Sample, burst, measure
from rows import (
    Unit,
    answer_matches,
    calibrated,
    end_to_end,
    load_rows,
    normalized,
    peak_child_rss_mb,
    raw,
    unit_medians,
)

#: Fresh interpreters timed per run; ``setup_s`` is their median.
IMPORTS = 5

#: ``--seconds`` buys ``round(seconds / PASS_REFERENCE_S)`` passes (at least
#: one); three passes let each row enter the metrics at a median of three.
PASS_REFERENCE_S = 10.0

#: Per-row deadline: far above any fast row, so a slow machine never turns
#: a row into a timeout.
ROW_DEADLINE_S = 300.0

#: Task kind of a traced row (registered only in the traced run).
TRACED_KIND = "perfbench-traced"

_TRACER: tracing.Tracer | None = None


def _run_traced(task: Any, options: Any) -> dict:
    """Run one row inside its fork under the tracer; return the payload and spans."""
    from repro.engine import execute_task
    from repro.polyhedra.cache import cache_stats

    inner = dataclasses.replace(task, kind=task.param("inner_kind"), params=())
    start = time.perf_counter()
    payload = execute_task(inner, options)
    execute_s = time.perf_counter() - start
    # execute_task cleared the memo tables when it started, so these
    # counters are this row's alone.
    return {
        "payload": payload,
        "execute_s": execute_s,
        "memo": cache_stats(),
        "cubes": _TRACER.cubes,
        "spans": _TRACER.take(),
    }


def time_import(env: Mapping[str, str]) -> Sample:
    """One fresh interpreter, from spawn until ``import repro.cli`` returns."""
    before = burst()
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import time, repro.cli; print(repr(time.monotonic()))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    # Both processes read CLOCK_MONOTONIC, so the child's reading is
    # comparable with ``start``; interpreter shutdown is not counted.
    return Sample(float(done.stdout) - start, before, burst())


def run(seed: int, seconds: int, trace: bool, env: Mapping[str, str], workdir: Path) -> dict:
    import repro.cli  # noqa: F401  (the image repro bench forks from)
    from repro.engine import BatchEngine, register_kind

    rows = load_rows()
    rng = random.Random(seed)
    setup = [time_import(env) for _ in range(IMPORTS)]
    engine = BatchEngine(jobs=1, timeout=ROW_DEADLINE_S, cache=None)
    units: list[Unit] = []
    for _ in range(max(1, round(seconds / PASS_REFERENCE_S))):
        order = list(rows)
        rng.shuffle(order)
        for row in order:
            result, sample = measure(lambda: engine.run([row.task])[0])
            ok = result.ok and answer_matches(row.expected, result.payload)
            units.append(Unit(row.key, "row", sample, ok, result.payload))
    peak_rss_mb = peak_child_rss_mb()

    def metrics(seconds_of) -> dict[str, float]:
        setup_s = statistics.median(seconds_of(sample) for sample in setup)
        return end_to_end(setup_s, units, seconds_of, peak_rss_mb)

    report = {
        "setup": [sample.to_dict() for sample in setup],
        "units": [unit.to_dict() for unit in units],
        "metrics": metrics(calibrated),
        "raw_metrics": metrics(raw),
        "attempted": len(units),
        "failed": sum(not unit.ok for unit in units),
        "checks": [],
    }
    if trace:
        register_kind(TRACED_KIND)(_run_traced)
        report["trace"] = _traced_pass(engine, rows, units, setup, report)
    return report


def _traced_pass(engine: Any, rows: list, units: list[Unit], setup: list[Sample], report: dict) -> dict:
    """One more pass with every layer function wrapped; the per-layer metrics."""
    global _TRACER
    _TRACER = tracing.install()
    untraced = {unit.key: unit.payload for unit in units}
    calls: Counter = Counter()
    functions: Counter = Counter()
    self_s: Counter = Counter()
    memo: dict = {}
    cubes = 0
    dispatch_ms = []
    traced_units = []
    spans_by_row = {}
    for index, row in enumerate(rows):
        task = dataclasses.replace(
            row.task, kind=TRACED_KIND, params=(("inner_kind", row.task.kind),)
        )
        _TRACER.unit = index  # inherited by the fork
        result, sample = measure(lambda: engine.run([task])[0])
        report["attempted"] += 1
        if not result.ok:
            report["failed"] += 1
            report["checks"].append(f"{row.key}: traced row {result.outcome}: {result.detail}")
            continue
        body = result.payload
        if normalized(body["payload"]) != normalized(untraced[row.key]):
            report["failed"] += 1
            report["checks"].append(f"{row.key}: traced payload differs from untraced payload")
        traced_units.append(Unit(row.key, "row", sample, True))
        dispatch_ms.append((result.wall_time - body["execute_s"]) * sample.factor * 1000)
        row_calls, row_self, row_functions = tracing.layer_totals(
            body["spans"], {index: sample.factor}
        )
        calls.update(row_calls)
        functions.update(row_functions)
        self_s.update(row_self)
        tracing.add_memo(memo, tracing.memo_delta({}, body["memo"]))
        cubes += body["cubes"]
        spans_by_row[row.key] = body["spans"]
    for label in tracing.idle_functions("paper-cold", functions):
        report["failed"] += 1
        report["checks"].append(f"{label} recorded no call on paper-cold")
    metrics = tracing.layer_metrics(calls, self_s, cubes, memo)
    metrics.update(
        {
            "setup.import_s": statistics.median(sample.calibrated_s for sample in setup),
            "setup.serve_ready_s": 0.0,
            "setup.warmup_s": 0.0,
            "engine.dispatch_ms": statistics.median(dispatch_ms) if dispatch_ms else 0.0,
            "service.frontend_ms": 0.0,
            "service.pool_ms": 0.0,
            "core.incremental.reused_frac": 0.0,
            "trace.overhead_s": math.fsum(unit_medians(traced_units, calibrated).values())
            - report["metrics"]["wall_s"],
        }
    )
    return {
        "metrics": metrics,
        "function_calls": dict(sorted(functions.items())),
        "memo": memo,
        "sites": _TRACER.sites,
        "spans": spans_by_row,
    }
