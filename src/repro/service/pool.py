"""A pool of warm, long-lived analysis worker processes.

Each worker is a child process running :func:`_worker_main`: a loop that
receives :class:`~repro.engine.tasks.AnalysisTask` objects over a pipe,
executes them with **warm state** — the polyhedral memo tables are kept
across requests (:func:`repro.polyhedra.cache.keep_warm`) and CHORA runs
through a per-worker :class:`~repro.core.incremental.IncrementalAnalyzer`
that splices cached procedure summaries — and reports the same payload
dicts the batch engine's cold workers produce.

The parent hands a request to exactly one idle worker at a time (a worker's
pipe is never shared between two in-flight requests), so the pool is safe
to drive from multiple threads: each of the HTTP server's connection
threads checks a worker out of an idle queue for its request.

Failure handling is the batch engine's isolation core
(:mod:`repro.engine.batch`: ``run_in_worker``, ``send_reply`` and
``WorkerProcess``), run in a long-lived worker instead of a fork per task:
a request that overruns the deadline gets a ``timeout`` result and its
worker is killed and replaced; a worker that dies mid-request yields a
``crash`` result and is replaced; an exception inside the analysis, or a
payload that cannot cross the pipe, yields an ``error`` result and the
worker stays (its state is still consistent — warm tables are
content-keyed and never partially updated).

Warm state lives exactly as long as the worker that built it: nothing is
written to disk, so a restarted ``repro serve`` starts with empty memo
tables and an empty summary store, and answers exact repeats from the
result cache alone.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core import ChoraOptions
from ..engine.batch import (
    BatchResult,
    WorkerProcess,
    run_in_worker,
    send_reply,
    settle_without_worker,
)
from ..engine.cache import ResultCache
from ..engine.tasks import AnalysisTask, set_program_analyzer

__all__ = ["WorkerPool", "PoolStats"]


def _worker_main(connection, options: ChoraOptions) -> None:
    """Entry point of one warm worker: serve requests until told to stop."""
    import signal

    from ..core import IncrementalAnalyzer, IncrementalReport
    from ..polyhedra.cache import keep_warm

    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group — the parent *and* every forked worker.  The worker must not
    # die from it mid-request: its lifecycle belongs to the parent alone
    # (the ``None`` stop message, escalating to SIGTERM via
    # ``_WarmWorker.kill``), which lets it finish the request in hand.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    analyzer = IncrementalAnalyzer()
    previous = set_program_analyzer(analyzer.analyze)
    # A forked worker inherits copies of the parent's pipe ends, so the
    # parent's death does not reach it as EOF: it notices instead that it
    # has been re-parented, and exits rather than live on as an orphan.
    parent = os.getppid()
    try:
        # Tell the parent start-up is done (imports paid), so request
        # deadlines measure analysis time, not spawn time.
        connection.send(("ready", None))
        with keep_warm():
            while True:
                try:
                    if not connection.poll(1.0):
                        if os.getppid() != parent:
                            break
                        continue
                    message = connection.recv()
                except (EOFError, OSError):
                    break
                if message is None:
                    break
                # Reset so kinds that never run CHORA (the baselines) don't
                # report the previous request's splice counts.
                analyzer.last_report = IncrementalReport()
                status, body = run_in_worker(message, options)
                meta = {}
                if status == "ok":
                    meta["incremental"] = analyzer.last_report.to_dict()
                send_reply(connection, status, body, meta)
    finally:
        set_program_analyzer(previous)
        connection.close()


class _WarmWorker(WorkerProcess):
    """Parent-side handle of one warm worker process."""

    __slots__ = ("ready",)

    #: Ceiling on worker start-up (interpreter + sympy import for spawned
    #: replacements); forked workers signal readiness in milliseconds.
    STARTUP_TIMEOUT = 300.0

    #: Grace period for a clean stop: a worker told to stop exits on its
    #: own, and only one that has not exited by then is killed.
    SHUTDOWN_GRACE = 30.0

    def __init__(self, context, options: ChoraOptions):
        super().__init__(context, _worker_main, options, duplex=True)
        self.ready = False

    def _await_ready(self) -> None:
        """Consume the start-up handshake (once per worker lifetime)."""
        try:
            message = self._reply_within(self.STARTUP_TIMEOUT)
        except TimeoutError:  # pragma: no cover - 5 min
            raise ConnectionError("worker start-up timed out") from None
        except ConnectionError as error:
            raise ConnectionError(f"start-up failed: {error}") from error
        if not (isinstance(message, tuple) and message[0] == "ready"):
            raise ConnectionError(f"unexpected start-up message {message!r}")
        self.ready = True

    def request(self, task: AnalysisTask, timeout: Optional[float]):
        """Send one task and wait for its reply.

        Returns the worker's ``(status, body, meta)`` triple; raises
        ``TimeoutError`` on deadline overrun and ``ConnectionError`` when
        the worker died without replying.  After either exception the
        worker is unusable and must be replaced.  The per-request deadline
        starts only once the worker has finished starting up.
        """
        if not self.ready:
            self._await_ready()
        self.connection.send(task)
        # A reply that failed to deserialize carries no meta.
        status, body, *meta = self._reply_within(timeout)
        return status, body, meta[0] if meta else {}

    def _reply_within(self, timeout: Optional[float]):
        """The worker's next reply; ``TimeoutError`` after ``timeout`` s."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = 0.05 if deadline is None else min(0.05, deadline - time.monotonic())
            reply = self.poll(max(wait, 0))
            if reply is not None:
                return reply
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError

    def stop(self) -> None:
        """Ask the worker to exit cleanly; escalate if it does not.

        The join waits up to :data:`SHUTDOWN_GRACE` (a worker that exits
        immediately costs nothing; one that hangs is still killed).
        """
        try:
            self.connection.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(self.SHUTDOWN_GRACE)
        self.kill()


@dataclass
class PoolStats:
    """Mutable counters of one :class:`WorkerPool`'s lifetime."""

    requests: int = 0
    cache_hits: int = 0
    errors: int = 0
    timeouts: int = 0
    crashes: int = 0
    restarts: int = 0
    #: procedures spliced vs re-analysed by the workers' incremental stores.
    procedures_reused: int = 0
    procedures_analyzed: int = 0
    started: float = field(default_factory=time.time)

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "procedures_reused": self.procedures_reused,
            "procedures_analyzed": self.procedures_analyzed,
            "uptime_seconds": round(time.time() - self.started, 1),
        }


class WorkerPool:
    """Serve analysis tasks from a pool of warm worker processes.

    Parameters
    ----------
    workers:
        Number of long-lived worker processes.
    timeout:
        Per-request deadline in seconds.  ``None`` disables it; ``0`` is an
        immediate deadline (cache hits still serve, everything else times
        out without engaging a worker).
    options:
        The :class:`ChoraOptions` every request is analysed under.
    cache:
        An optional shared :class:`ResultCache` consulted before a worker
        is engaged and populated after it answers — the same content keys
        the batch engine uses, so the service and batch runs share results.
    """

    def __init__(
        self,
        workers: int = 2,
        timeout: Optional[float] = None,
        options: ChoraOptions = ChoraOptions(),
        cache: Optional[ResultCache] = None,
    ):
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.options = options
        self.cache = cache
        self.stats = PoolStats()
        methods = multiprocessing.get_all_start_methods()
        # Fork shares the parent's warm module state (sympy, parsed code)
        # with every worker at no per-request cost.
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._stats_lock = threading.Lock()
        self._idle: "queue.Queue[_WarmWorker]" = queue.Queue()
        self._all: list[_WarmWorker] = []
        self._closed = False
        for _ in range(self.workers):
            self._add_worker()

    # ------------------------------------------------------------------ #
    def _add_worker(self, context=None) -> None:
        worker = _WarmWorker(context or self._context, self.options)
        self._all.append(worker)
        self._idle.put(worker)

    def _replace(self, worker: _WarmWorker) -> None:
        worker.kill()
        self._all.remove(worker)
        with self._stats_lock:
            self.stats.restarts += 1
        # Replacements happen while request threads are live (the HTTP
        # server's connection threads), and forking a multithreaded process
        # can deadlock the child.  Spawn instead: the replacement pays a
        # one-off interpreter + import start-up — acceptable on the
        # exceptional timeout/crash path — and serves warm thereafter.
        self._add_worker(multiprocessing.get_context("spawn"))

    # ------------------------------------------------------------------ #
    def submit(
        self, task: AnalysisTask, timeout: Optional[float] = None
    ) -> BatchResult:
        """Run one task on a warm worker and return its result record.

        Thread-safe; blocks while every worker is busy.  The record has
        exactly the shape the batch engine produces, so the HTTP server
        answers with the records ``repro bench`` prints.
        ``timeout`` is a per-request deadline in seconds that covers the
        wait for an idle worker too: when it runs out first, the record is
        a ``timeout`` and no worker is engaged.  The worker then runs under
        what is left of it, and it can only *tighten* the pool-wide
        deadline, which bounds every run, so a client-supplied deadline
        never extends the budget the operator configured.  ``0`` is an
        immediate deadline, ``None`` falls back to the pool default.  The
        worker's incremental splice report goes into the pool's counters.
        """
        if self._closed:
            raise RuntimeError("the worker pool is closed")
        queued = time.monotonic()
        effective = self.timeout
        if timeout is not None:
            effective = timeout if effective is None else min(effective, timeout)
        with self._stats_lock:
            self.stats.requests += 1
        key, settled = settle_without_worker(task, self.options, self.cache, effective)
        if settled is None:
            # The wait for an idle worker counts against the caller's
            # ``timeout`` (not the pool's own, which bounds the run).
            try:
                worker = self._idle.get(timeout=timeout)
            except queue.Empty:
                worker = None
            if timeout is not None:
                left = timeout - (time.monotonic() - queued)
                if worker is not None and left <= 0:
                    self._idle.put(worker)
                    worker = None
                effective = left if self.timeout is None else min(self.timeout, left)
            if worker is None:
                detail = f"exceeded the {timeout:g}s deadline waiting for a worker"
                waited = time.monotonic() - queued
                settled = BatchResult.failed(task, "timeout", waited, detail)
        if settled is not None:
            # A cache hit, or a deadline reported without engaging (and
            # then having to kill and replace) a healthy worker.
            with self._stats_lock:
                if settled.cache_hit:
                    self.stats.cache_hits += 1
                else:
                    self.stats.timeouts += 1
            return settled

        started = time.monotonic()
        try:
            status, body, meta = worker.request(task, effective)
        except TimeoutError:
            elapsed = time.monotonic() - started
            self._replace(worker)
            with self._stats_lock:
                self.stats.timeouts += 1
            detail = f"exceeded the {effective:g}s deadline"
            return BatchResult.failed(task, "timeout", elapsed, detail)
        except ConnectionError as error:
            elapsed = time.monotonic() - started
            self._replace(worker)
            with self._stats_lock:
                self.stats.crashes += 1
            return BatchResult.failed(task, "crash", elapsed, str(error))
        except BaseException:
            # Any other failure between checkout and reply (a payload that
            # cannot pickle for the send, an interrupt, a bug) leaves the
            # worker's pipe state unknown.  Replace it rather than leak the
            # slot: before this accounting existed, an unexpected exception
            # here silently shrank the pool forever.
            self._replace(worker)
            raise
        else:
            # The request round-trip completed; the worker is healthy and
            # goes straight back into rotation.  Everything below this line
            # (stats, cache writes) runs with the slot already returned, so
            # a failure there cannot leak it either.
            self._idle.put(worker)
        elapsed = time.monotonic() - started
        self._absorb_meta(meta)
        if status != "ok":
            with self._stats_lock:
                self.stats.errors += 1
            return BatchResult.failed(task, "error", elapsed, str(body))
        if key is not None and self.cache is not None:
            self.cache.put(key, body, task_name=task.name, suite=task.suite)
        return BatchResult.succeeded(task, body, elapsed, False)

    # ------------------------------------------------------------------ #
    def _absorb_meta(self, meta: dict) -> None:
        incremental = meta.get("incremental") or {}
        with self._stats_lock:
            self.stats.procedures_reused += len(incremental.get("reused", ()))
            self.stats.procedures_analyzed += len(incremental.get("analyzed", ()))

    # ------------------------------------------------------------------ #
    def busy_workers(self) -> int:
        """How many workers are serving a request right now (approximate).

        Read lock-free from the idle queue's length: exact enough for the
        ``/metrics`` utilisation gauge, never used for scheduling.
        """
        return max(0, min(self.workers, self.workers - self._idle.qsize()))

    def stats_dict(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the pool's counters."""
        with self._stats_lock:
            snapshot = self.stats.to_dict()
        snapshot["workers"] = self.workers
        return snapshot

    def close(self) -> None:
        """Stop every worker; the pool cannot be used afterwards."""
        if self._closed:
            return
        self._closed = True
        for worker in self._all:
            worker.stop()
        self._all.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
