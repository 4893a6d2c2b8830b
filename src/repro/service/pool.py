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
to drive from multiple threads: the HTTP server checks workers out of an
idle queue, and :meth:`WorkerPool.run` fans a task list out over them.

Failure handling mirrors the batch engine: a request that overruns the
deadline gets a ``timeout`` result and its worker is killed and replaced; a
worker that dies mid-request yields a ``crash`` result and is replaced; an
exception inside the analysis yields an ``error`` result and the worker
stays (its state is still consistent — warm tables are content-keyed and
never partially updated).

When the pool has a result cache, its storage backend also carries two
persisted warm-state blobs: a snapshot of the polyhedral memo tables (see
:func:`repro.polyhedra.cache.save_snapshot`) and the incremental summary
store (:meth:`repro.core.incremental.IncrementalAnalyzer.save_store`).
Every worker loads both when it starts — so a restarted ``repro serve`` or
a second ``repro bench --engine warm`` begins with the previous run's
projection/LP memo *and* answers its first repeated request by splicing
every cached component — and merges its own state back on clean shutdown.
Workers killed on the timeout/crash path skip the save; both blobs are a
best-effort warm start, never a correctness dependency.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..core import ChoraOptions
from ..engine.batch import BatchResult
from ..engine.cache import ResultCache
from ..engine.tasks import (
    AnalysisTask,
    InvalidProgram,
    execute_task,
    set_program_analyzer,
)

__all__ = ["WorkerPool", "PoolStats"]


def _worker_main(
    connection,
    options: ChoraOptions,
    memo_storage=None,
    store_storage=None,
) -> None:
    """Entry point of one warm worker: serve requests until told to stop."""
    import signal

    from ..core import IncrementalAnalyzer, IncrementalReport
    from ..engine.cache import code_fingerprint
    from ..polyhedra.cache import keep_warm, load_snapshot, save_snapshot

    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group — the parent *and* every forked worker.  The worker must not
    # die from it mid-``recv``: that skips the clean-shutdown save of the
    # memo snapshot and incremental store the parent is about to request.
    # Lifecycle belongs to the parent alone (the ``None`` stop message,
    # escalating to SIGTERM via ``_WarmWorker.kill``).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    analyzer = IncrementalAnalyzer()
    previous = set_program_analyzer(analyzer.analyze)
    requests = 0
    loaded = 0
    store_loaded = 0
    # Both loads run before the ready handshake; nothing a persisted blob
    # contains may crash the worker here (every restarted worker would die
    # the same way until the store is cleared) — degrade to a cold start.
    if memo_storage is not None:
        try:
            loaded = load_snapshot(memo_storage, code_fingerprint())
        except Exception:
            loaded = 0
    if store_storage is not None:
        # Restore the previous service's per-SCC summaries, so the first
        # repeated request after a restart splices every component.
        try:
            store_loaded = analyzer.load_store(store_storage, code_fingerprint())
        except Exception:
            store_loaded = 0
    try:
        # Tell the parent start-up is done (imports and snapshots paid),
        # so request deadlines measure analysis time, not spawn time.
        connection.send(
            ("ready", None, {"memo_loaded": loaded, "store_loaded": store_loaded})
        )
        with keep_warm():
            while True:
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    break
                if message is None:
                    # Clean shutdown: merge this worker's memo tables and
                    # component store into the shared persisted copies for
                    # the next pool to load.
                    if memo_storage is not None:
                        save_snapshot(memo_storage, code_fingerprint())
                    if store_storage is not None:
                        analyzer.save_store(store_storage, code_fingerprint())
                    break
                requests += 1
                started = time.perf_counter()
                # Reset so kinds that never run CHORA (the baselines) don't
                # report the previous request's splice counts.
                analyzer.last_report = IncrementalReport()
                try:
                    payload = execute_task(message, options)
                    meta = {
                        "worker_seconds": round(time.perf_counter() - started, 4),
                        "requests": requests,
                        "incremental": analyzer.last_report.to_dict(),
                    }
                    reply = ("ok", payload, meta)
                except InvalidProgram as error:
                    # Front-end rejection: a structured one-line detail the
                    # service maps to a 400 answer, not a traceback.
                    meta = {
                        "worker_seconds": round(time.perf_counter() - started, 4),
                        "requests": requests,
                    }
                    reply = ("error", f"invalid-program: {error}", meta)
                except BaseException:
                    meta = {
                        "worker_seconds": round(time.perf_counter() - started, 4),
                        "requests": requests,
                    }
                    reply = ("error", traceback.format_exc(limit=20), meta)
                try:
                    connection.send(reply)
                except BaseException:
                    # The payload failed to serialize; report that as this
                    # request's error instead of dying mid-send (which the
                    # parent would misread as a worker crash).
                    connection.send(
                        (
                            "error",
                            "the task succeeded but its result payload could"
                            " not be serialized for the parent process:\n"
                            + traceback.format_exc(limit=20),
                            meta,
                        )
                    )
    finally:
        set_program_analyzer(previous)
        connection.close()


class _WarmWorker:
    """Parent-side handle of one warm worker process."""

    __slots__ = (
        "process",
        "connection",
        "served",
        "ready",
        "memo_loaded",
        "store_loaded",
    )

    #: Ceiling on worker start-up (interpreter + sympy import for spawned
    #: replacements); forked workers signal readiness in milliseconds.
    STARTUP_TIMEOUT = 300.0

    #: Grace period for a clean stop: the worker may be merging and writing
    #: its memo snapshot, which must not be cut short by an impatient kill.
    SHUTDOWN_GRACE = 30.0

    def __init__(
        self,
        context,
        options: ChoraOptions,
        memo_storage=None,
        store_storage=None,
    ):
        parent_end, child_end = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_end, options, memo_storage, store_storage),
            daemon=True,
        )
        self.process.start()
        child_end.close()
        self.connection = parent_end
        self.served = 0
        self.ready = False
        self.memo_loaded = 0
        self.store_loaded = 0

    def _await_ready(self) -> None:
        """Consume the start-up handshake (once per worker lifetime)."""
        deadline = time.monotonic() + self.STARTUP_TIMEOUT
        while not self.connection.poll(0.05):
            if not self.process.is_alive() and not self.connection.poll(0):
                raise ConnectionError(
                    f"worker exited with code {self.process.exitcode}"
                    " during start-up"
                )
            if time.monotonic() >= deadline:  # pragma: no cover - 5 min
                raise ConnectionError("worker start-up timed out")
        try:
            message = self.connection.recv()
        except (EOFError, OSError) as error:
            raise ConnectionError("worker died during start-up") from error
        if not (isinstance(message, tuple) and message[0] == "ready"):
            raise ConnectionError(f"unexpected start-up message {message!r}")
        meta = message[2] if len(message) > 2 and isinstance(message[2], dict) else {}
        self.memo_loaded = int(meta.get("memo_loaded", 0) or 0)
        self.store_loaded = int(meta.get("store_loaded", 0) or 0)
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
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = 0.05 if deadline is None else min(0.05, deadline - time.monotonic())
            if self.connection.poll(max(wait, 0)):
                try:
                    reply = self.connection.recv()
                except (EOFError, OSError) as error:
                    self.process.join(1)
                    raise ConnectionError(
                        "worker died mid-request"
                        f" (exit code {self.process.exitcode})"
                    ) from error
                except BaseException:
                    # The worker replied but the payload failed to
                    # deserialize on this side; the worker itself is alive
                    # and consistent, so report an error result and keep it.
                    reply = (
                        "error",
                        "the worker's result payload could not be"
                        " deserialized:\n" + traceback.format_exc(limit=20),
                        {},
                    )
                self.served += 1
                return reply
            if not self.process.is_alive():
                # One final poll: the reply may have raced the exit.
                if self.connection.poll(0):
                    continue
                raise ConnectionError(
                    f"worker exited with code {self.process.exitcode}"
                    " without reporting a result"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError

    def stop(self) -> None:
        """Ask the worker to exit cleanly; escalate if it does not.

        A cleanly stopping worker saves its memo snapshot first, so the
        join waits :data:`SHUTDOWN_GRACE` (a worker that exits immediately
        costs nothing; one that hangs is still killed).
        """
        try:
            self.connection.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(self.SHUTDOWN_GRACE)
        self.kill()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5)
            if self.process.is_alive():  # pragma: no cover - stubborn worker
                self.process.kill()
                self.process.join()
        self.connection.close()


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
    memo_snapshot:
        Whether workers use the persisted polyhedral memo snapshot (load
        on start, merge on clean shutdown).  ``None`` — the default —
        enables it exactly when a cache is configured; ``False`` runs the
        pool with genuinely cold memo tables (``repro bench --engine warm
        --no-memo-snapshot``).
    """

    def __init__(
        self,
        workers: int = 2,
        timeout: Optional[float] = None,
        options: ChoraOptions = ChoraOptions(),
        cache: Optional[ResultCache] = None,
        memo_snapshot: Optional[bool] = None,
    ):
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.options = options
        self.cache = cache
        # The polyhedral memo snapshot and the incremental summary store
        # live in their own namespaces of the result cache's storage
        # backend: workers load both on start and merge their state back on
        # clean shutdown, so warmth survives restarts.
        memo_enabled = (
            (cache is not None) if memo_snapshot is None else bool(memo_snapshot)
        )
        self.memo_storage = (
            cache.memo_storage() if memo_enabled and cache is not None else None
        )
        self.incremental_storage = (
            cache.incremental_storage() if cache is not None else None
        )
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
        worker = _WarmWorker(
            context or self._context,
            self.options,
            self.memo_storage,
            self.incremental_storage,
        )
        self._all.append(worker)
        self._idle.put(worker)

    def _replace(self, worker: _WarmWorker) -> None:
        worker.kill()
        self._all.remove(worker)
        with self._stats_lock:
            self.stats.restarts += 1
        # Replacements happen while request threads are live (the HTTP
        # server, run()'s executor), and forking a multithreaded process
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
        exactly the shape the batch engine produces, so callers (the HTTP
        server, ``repro bench --engine warm``) are engine-agnostic.
        ``timeout`` is a per-request deadline in seconds: it can only
        *tighten* the pool-wide deadline (the effective deadline is the
        smaller of the two), so a client-supplied deadline never extends
        the budget the operator configured.  ``0`` is an immediate
        deadline, ``None`` falls back to the pool default.
        """
        return self.submit_with_meta(task, timeout=timeout)[0]

    def submit_with_meta(
        self, task: AnalysisTask, timeout: Optional[float] = None
    ) -> tuple[BatchResult, dict]:
        """Like :meth:`submit`, also returning the worker's meta dict.

        The meta carries the per-request incremental splice report
        (``meta["incremental"]``, the
        :class:`~repro.core.incremental.IncrementalReport` shape) and the
        worker-side timing; it is ``{}`` for requests that never engaged a
        worker (cache hits, immediate deadlines).
        """
        if self._closed:
            raise RuntimeError("the worker pool is closed")
        effective = self.timeout
        if timeout is not None:
            effective = timeout if effective is None else min(effective, timeout)
        with self._stats_lock:
            self.stats.requests += 1
        key = self.cache.key(task, self.options) if self.cache else None
        if key is not None:
            payload = self.cache.get(key)
            if payload is not None:
                with self._stats_lock:
                    self.stats.cache_hits += 1
                return self._ok_result(task, payload, 0.0, cache_hit=True), {}

        if effective == 0:
            # An immediate deadline: report the timeout without engaging (and
            # then having to kill and replace) a perfectly healthy worker.
            with self._stats_lock:
                self.stats.timeouts += 1
            return (
                self._failed_result(task, "timeout", 0.0, "exceeded the 0s deadline"),
                {},
            )

        worker = self._idle.get()
        started = time.monotonic()
        try:
            status, body, meta = worker.request(task, effective)
        except TimeoutError:
            elapsed = time.monotonic() - started
            self._replace(worker)
            with self._stats_lock:
                self.stats.timeouts += 1
            return (
                self._failed_result(
                    task,
                    "timeout",
                    elapsed,
                    f"exceeded the {effective:g}s deadline",
                ),
                {},
            )
        except ConnectionError as error:
            elapsed = time.monotonic() - started
            self._replace(worker)
            with self._stats_lock:
                self.stats.crashes += 1
            return self._failed_result(task, "crash", elapsed, str(error)), {}
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
        meta = meta if isinstance(meta, dict) else {}
        self._absorb_meta(meta)
        if status != "ok":
            with self._stats_lock:
                self.stats.errors += 1
            return self._failed_result(task, "error", elapsed, str(body)), meta
        if key is not None and self.cache is not None:
            self.cache.put(key, body, task_name=task.name, suite=task.suite)
        return self._ok_result(task, body, elapsed, cache_hit=False), meta

    def run(
        self,
        tasks: Sequence[AnalysisTask],
        progress: Optional[Callable[[BatchResult], None]] = None,
        deadline: Optional[float] = None,
    ) -> list[BatchResult]:
        """Run a batch over the warm pool; results come back in task order."""
        return self.run_with_meta(tasks, progress, deadline=deadline)[0]

    def run_with_meta(
        self,
        tasks: Sequence[AnalysisTask],
        progress: Optional[Callable[[BatchResult], None]] = None,
        deadline: Optional[float] = None,
    ) -> tuple[list[BatchResult], list[dict]]:
        """Run a batch, returning per-task worker metas next to the results.

        ``metas[i]`` is the meta dict of ``results[i]`` (see
        :meth:`submit_with_meta`); the ``POST /batch`` route surfaces the
        incremental splice report it carries per task.  ``deadline`` is an
        absolute ``time.monotonic()`` instant bounding the *whole batch*:
        each task runs under the time remaining until it (tasks starting
        after expiry report ``timeout`` immediately, the pool-wide
        per-request deadline still applies on top).
        """
        results: list[Optional[BatchResult]] = [None] * len(tasks)
        metas: list[dict] = [{} for _ in tasks]

        def work(index: int) -> None:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            result, meta = self.submit_with_meta(tasks[index], timeout=timeout)
            results[index] = result
            metas[index] = meta
            if progress is not None:
                progress(result)

        with ThreadPoolExecutor(max_workers=self.workers) as executor:
            for future in [executor.submit(work, i) for i in range(len(tasks))]:
                future.result()
        # Account for every task: a slot no result landed in becomes an
        # explicit error record rather than silently shrinking the report.
        for index, task in enumerate(tasks):
            if results[index] is None:
                results[index] = self._failed_result(
                    task,
                    "error",
                    0.0,
                    "no result was recorded for this task; this is a pool"
                    " bookkeeping bug, not an analysis outcome",
                )
        return [result for result in results if result is not None], metas

    # ------------------------------------------------------------------ #
    def _absorb_meta(self, meta: dict) -> None:
        incremental = meta.get("incremental") or {}
        with self._stats_lock:
            self.stats.procedures_reused += len(incremental.get("reused", ()))
            self.stats.procedures_analyzed += len(incremental.get("analyzed", ()))

    @staticmethod
    def _ok_result(
        task: AnalysisTask, payload: dict, wall_time: float, cache_hit: bool
    ) -> BatchResult:
        return BatchResult(
            name=task.name,
            kind=task.kind,
            outcome="ok",
            wall_time=wall_time,
            cache_hit=cache_hit,
            suite=task.suite,
            proved=payload.get("proved"),
            bound=payload.get("bound"),
            payload=payload,
        )

    @staticmethod
    def _failed_result(
        task: AnalysisTask, outcome: str, wall_time: float, detail: str
    ) -> BatchResult:
        return BatchResult(
            name=task.name,
            kind=task.kind,
            outcome=outcome,
            wall_time=wall_time,
            suite=task.suite,
            detail=detail,
        )

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
        snapshot["memo_snapshot_entries_loaded"] = sum(
            worker.memo_loaded for worker in self._all
        )
        snapshot["incremental_store_components_loaded"] = sum(
            worker.store_loaded for worker in self._all
        )
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
