"""The batch-analysis engine: run many CHORA analyses fast and safely.

The engine is the scale substrate the evaluation harnesses sit on:

* :class:`~repro.engine.batch.BatchEngine` — analyse many programs
  concurrently in worker processes, with per-program timeout and crash
  isolation (one pathological benchmark cannot sink the batch);
* :class:`~repro.engine.cache.ResultCache` — a content-addressed on-disk
  result cache keyed by (program source, options fingerprint, code version),
  making re-runs of unchanged benchmarks near-instant;
* :class:`~repro.engine.tasks.AnalysisTask` — one unit of work, with an
  extensible registry of task kinds (CHORA complexity / assertion checking,
  the ICRA and unrolling baselines, whole-program summaries);
* :mod:`repro.engine.suites` — build task batches from the benchmark suites
  of :mod:`repro.benchlib`;
* :mod:`repro.engine.config` — the environment switches shared by the CLI,
  the tests and the examples (``REPRO_FULL_BENCH``, cache location).

The *serving* counterpart — long-lived warm workers behind an HTTP
endpoint — lives in :mod:`repro.service` and reuses the task registry and
cache of this package.
"""

from .batch import BatchEngine, BatchResult, summarize_batch
from .cache import ResultCache, make_cache
from .config import (
    CACHE_DIR_ENV,
    FULL_BENCH_ENV,
    NO_CACHE_ENV,
    cache_enabled,
    default_cache_directory,
    full_bench_enabled,
)
from .suites import suite_tasks
from .tasks import (
    AnalysisTask,
    execute_task,
    register_kind,
    registered_kinds,
    set_program_analyzer,
)

__all__ = [
    "BatchEngine",
    "BatchResult",
    "summarize_batch",
    "ResultCache",
    "make_cache",
    "AnalysisTask",
    "execute_task",
    "register_kind",
    "registered_kinds",
    "set_program_analyzer",
    "suite_tasks",
    "CACHE_DIR_ENV",
    "FULL_BENCH_ENV",
    "NO_CACHE_ENV",
    "cache_enabled",
    "default_cache_directory",
    "full_bench_enabled",
]
