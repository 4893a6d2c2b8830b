"""The warm analysis service: long-lived workers serving analysis requests.

The batch engine (:mod:`repro.engine`) forks one process per task: perfect
isolation, but every task pays process start-up and runs with cold memo
tables.  This package provides the *serving* counterpart for request-level
traffic:

* :class:`~repro.service.pool.WorkerPool` — a pool of **warm worker
  processes**.  Each worker imports sympy and the analysis code once, keeps
  the polyhedral memo caches hot across requests
  (:func:`repro.polyhedra.cache.keep_warm`), and runs CHORA through an
  :class:`~repro.core.incremental.IncrementalAnalyzer`, so a repeated or
  lightly-edited program re-analyses only the procedures whose fingerprints
  changed.  Per-request timeout, crash and error isolation is the batch
  engine's own isolation core (:mod:`repro.engine.batch`), run in a
  long-lived worker: a hung or dying worker is replaced, never the service.
* :class:`~repro.service.server.AnalysisServer` — the stdlib's threaded
  HTTP server (``repro serve``, one thread per connection) speaking the
  versioned ``/v1`` API with
  keep-alive and pipelined connections, bounded admission (429 + a
  ``Retry-After`` hint under overload), per-request deadlines
  (``X-Repro-Deadline-Ms`` → 504 on expiry) and a ``/v1/metrics`` SLO
  document; it returns exactly the JSON records ``repro analyze --json``
  prints.

Results are indistinguishable from the cold engine's up to fresh-symbol
numbering: every warm structure (memo tables, spliced summaries) is keyed
on content and pure, so warmth changes latency, never verdicts.
"""

from .pool import PoolStats, WorkerPool
from .server import AnalysisServer, ServiceMetrics, serve

__all__ = [
    "WorkerPool",
    "PoolStats",
    "AnalysisServer",
    "ServiceMetrics",
    "serve",
]
