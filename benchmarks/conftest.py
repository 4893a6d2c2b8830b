"""Shared configuration for the benchmark harness.

Every benchmark runs the analysis exactly once per measurement
(``rounds=1``): the quantities of interest are end-to-end analysis times,
not micro-timings, and several analyses take seconds.

Set ``REPRO_FULL_BENCH=1`` to include the slowest rows (strassen,
qsort_steps, closest_pair, ackermann, the full Fig.-3 sweep); closest_pair
is the slowest of them.
The flag is owned by :mod:`repro.engine.config` so the bench scripts, the
``repro`` CLI and the batch engine always agree; ``FULL`` is re-exported
here for the bench modules.
"""

import dataclasses

import pytest

from repro.benchlib.suites import suite_entry
from repro.core import ChoraOptions
from repro.engine import AnalysisTask, execute_task
from repro.engine.config import full_bench_enabled

FULL = full_bench_enabled()


def run_entry(suite: str, name: str, kind: str, **params):
    """Execute one suite entry through the engine's task protocol.

    ``kind`` may override the entry's native kind to run a baseline (e.g.
    ``assertion-unrolling`` with a ``depth`` parameter); returns the payload.
    """
    entry = suite_entry(suite, name)
    task = AnalysisTask.from_entry(entry, suite=suite)
    if kind != entry.kind or params:
        task = dataclasses.replace(
            task, kind=kind, params=tuple(sorted(params.items()))
        )
    return execute_task(task, ChoraOptions())


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(function, *args, **kwargs):
        return run_once(benchmark, function, *args, **kwargs)

    return runner
