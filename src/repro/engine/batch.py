"""The batch engine: many analyses, worker processes, isolation, caching.

Each task runs in its own worker process (forked where available, so the
warm parent image — parsed modules, sympy caches — is shared for free).  The
parent schedules up to ``jobs`` workers at a time and enforces a per-task
deadline: a worker that overruns is terminated and recorded as ``timeout``,
a worker that dies without reporting (hard crash, OOM kill) is recorded as
``crash``, and an exception inside the analysis is recorded as ``error`` with
its traceback — in every case the rest of the batch keeps running.

Because each task executes in a process forked from the same parent state,
results are bit-for-bit independent of scheduling: ``jobs=4`` produces the
same outcomes as a serial run.

The isolation core below — :func:`run_in_worker` and :func:`send_reply` on
the child side, :class:`WorkerProcess` on the parent side, and the
:class:`BatchResult` constructors — is shared with the warm workers of
:class:`repro.service.pool.WorkerPool`, which keep one child alive across
many requests instead of forking one per task.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from ..core import ChoraOptions
from .cache import ResultCache
from .tasks import AnalysisTask, InvalidProgram, execute_task

__all__ = ["BatchEngine", "BatchResult", "summarize_batch"]

#: Result outcomes, from best to worst.
OUTCOMES = ("ok", "timeout", "error", "crash")


@dataclass(frozen=True)
class BatchResult:
    """The structured record of one task's run."""

    name: str
    kind: str
    outcome: str
    wall_time: float
    cache_hit: bool = False
    suite: Optional[str] = None
    #: shorthand columns extracted from the payload when present.
    proved: Optional[bool] = None
    bound: Optional[str] = None
    #: error / timeout detail (empty on success).
    detail: str = ""
    payload: Mapping[str, Any] = field(default_factory=dict, hash=False)

    @classmethod
    def succeeded(
        cls, task: AnalysisTask, payload: dict, wall_time: float, cache_hit: bool
    ) -> "BatchResult":
        """The ``ok`` record of ``task``, its verdict columns read off ``payload``."""
        return cls(
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

    @classmethod
    def failed(
        cls, task: AnalysisTask, outcome: str, wall_time: float, detail: str
    ) -> "BatchResult":
        """The record of ``task`` with no payload: any outcome but ``ok``."""
        return cls(
            name=task.name,
            kind=task.kind,
            outcome=outcome,
            wall_time=wall_time,
            suite=task.suite,
            detail=detail,
        )

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "suite": self.suite,
            "kind": self.kind,
            "outcome": self.outcome,
            "proved": self.proved,
            "bound": self.bound,
            "wall_time": round(self.wall_time, 4),
            "cache_hit": self.cache_hit,
            "detail": self.detail,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "BatchResult":
        """Rebuild a result from its :meth:`to_dict` record.

        Used by the ``repro batch`` client to render records a remote
        ``POST /batch`` returned with the same reporting code local engines
        use; unknown outcomes or missing fields raise ``ValueError``.
        """
        try:
            outcome = str(record["outcome"])
            if outcome not in OUTCOMES:
                raise ValueError(f"unknown outcome {outcome!r}")
            payload = record.get("payload") or {}
            if not isinstance(payload, Mapping):
                raise ValueError('"payload" must be an object')
            return cls(
                name=str(record["name"]),
                kind=str(record["kind"]),
                outcome=outcome,
                wall_time=float(record.get("wall_time") or 0.0),
                cache_hit=bool(record.get("cache_hit", False)),
                suite=record.get("suite"),
                proved=record.get("proved"),
                bound=record.get("bound"),
                detail=str(record.get("detail") or ""),
                payload=dict(payload),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed result record: {error}") from None


def settle_without_worker(
    task: AnalysisTask,
    options: ChoraOptions,
    cache: Optional[ResultCache],
    timeout: Optional[float],
) -> tuple[Optional[str], Optional[BatchResult]]:
    """The cache key of ``task`` and its record, when no worker is needed.

    The record is a cache hit, or a ``timeout`` under an immediate ``0``
    deadline: deterministic, because no worker is engaged (a fast task
    must not win a race against the reaper).  ``None`` means a worker must
    run the task, and the key (``None`` without a cache) stores its result.
    """
    key = cache.key(task, options) if cache is not None else None
    if key is not None:
        payload = cache.get(key)
        if payload is not None:
            return key, BatchResult.succeeded(task, payload, 0.0, True)
    if timeout == 0:
        return key, BatchResult.failed(task, "timeout", 0.0, "exceeded the 0s deadline")
    return key, None


def fill_unreported(
    tasks: Sequence[AnalysisTask], results: Sequence[Optional[BatchResult]]
) -> list[BatchResult]:
    """``results`` with every empty slot an explicit ``error`` record.

    Every task must be accounted for: a slot no result landed in (an engine
    bookkeeping bug, or a run unwinding through an exception) would
    otherwise silently shrink the report, which reads as a smaller suite.
    """
    return [
        result
        if result is not None
        else BatchResult.failed(
            task,
            "error",
            0.0,
            "no result was recorded for this task; this is an engine"
            " bookkeeping bug, not an analysis outcome",
        )
        for task, result in zip(tasks, results)
    ]


# ---------------------------------------------------------------------- #
# The isolation core: one child process behind a pipe
# ---------------------------------------------------------------------- #
def run_in_worker(task: AnalysisTask, options: ChoraOptions) -> tuple[str, Any]:
    """Run ``task`` here, in a worker: ``("ok", payload)`` or ``("error", detail)``."""
    try:
        return "ok", execute_task(task, options)
    except InvalidProgram as error:
        # A front-end rejection is a structured outcome, not a bug: the
        # one-line detail (no traceback) is what the CLI prints verbatim
        # and what the service maps to a 400 answer.
        return "error", f"invalid-program: {error}"
    except BaseException:
        return "error", traceback.format_exc(limit=20)


def send_reply(connection, status: str, body: Any, *extra: Any) -> None:
    """Send ``(status, body, *extra)`` to the parent.

    A payload that fails to *serialize* (``connection.send`` pickles it)
    is sent as an ``error`` carrying the serialization traceback instead:
    dying mid-send would surface as an unexplained ``crash``.
    """
    try:
        connection.send((status, body, *extra))
    except BaseException:
        connection.send(
            (
                "error",
                "the task succeeded but its result payload could not be"
                " serialized for the parent process:\n"
                + traceback.format_exc(limit=20),
                *extra,
            )
        )


class WorkerProcess:
    """The parent's handle on one child process behind a pipe.

    The child runs ``target(connection, *args)`` and answers over its end
    of the pipe with :func:`send_reply`.
    """

    __slots__ = ("process", "connection")

    def __init__(self, context, target, *args: Any, duplex: bool = False):
        self.connection, child_end = context.Pipe(duplex=duplex)
        self.process = context.Process(
            target=target, args=(child_end, *args), daemon=True
        )
        self.process.start()
        child_end.close()

    def poll(self, wait: float = 0.0):
        """The child's next reply, or ``None`` if none arrives within ``wait`` s.

        Raises ``ConnectionError`` when the child exited without replying.
        A reply that fails to *deserialize* here (a ``__reduce__`` that
        raises on load, a class that only exists in the child, ...) comes
        back as an ``error`` reply: the child reported, so its task failed,
        not the child.
        """
        if not self.connection.poll(wait):
            if self.process.is_alive():
                return None
            # One final receive: the reply may have raced the exit.
            if not self.connection.poll(0):
                raise ConnectionError(self._exited())
        try:
            return self.connection.recv()
        except (EOFError, OSError) as error:
            self.process.join(1)
            raise ConnectionError(self._exited()) from error
        except BaseException:
            return (
                "error",
                "the worker's result payload could not be deserialized:\n"
                + traceback.format_exc(limit=20),
            )

    def _exited(self) -> str:
        return (
            f"worker exited with code {self.process.exitcode}"
            " without reporting a result"
        )

    def join(self) -> None:
        """Wait for a child that has replied or exited; close the pipe."""
        self.process.join()
        self.connection.close()

    def kill(self) -> None:
        """Terminate the child if it still runs; close the pipe."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5)
            if self.process.is_alive():  # pragma: no cover - stubborn worker
                self.process.kill()
                self.process.join()
        self.connection.close()


def _worker(connection, task: AnalysisTask, options: ChoraOptions) -> None:
    """Entry point of one batch worker process: run the task, reply once."""
    try:
        send_reply(connection, *run_in_worker(task, options))
    finally:
        connection.close()


class _Running(NamedTuple):
    """Book-keeping for one in-flight batch worker."""

    worker: WorkerProcess
    task: AnalysisTask
    key: Optional[str]
    started: float


class BatchEngine:
    """Analyse batches of programs concurrently, with caching and isolation.

    Parameters
    ----------
    jobs:
        Maximum number of concurrently running worker processes.
    timeout:
        Per-task deadline in seconds.  ``None`` disables the deadline; ``0``
        is an *immediate* deadline — cache hits still serve, but no worker
        is ever spawned and every other task is reported as ``timeout``.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.  The cache
        only settles exact repeats; every task it misses runs cold in its
        fork, with or without a cache.
    options:
        The :class:`ChoraOptions` every task is analysed under.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        options: ChoraOptions = ChoraOptions(),
    ):
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.cache = cache
        self.options = options
        methods = multiprocessing.get_all_start_methods()
        # Fork shares the parent's warm module state with every worker and
        # keeps ad-hoc registered task kinds visible to them.
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        tasks: Sequence[AnalysisTask],
        progress: Optional[Callable[[BatchResult], None]] = None,
    ) -> list[BatchResult]:
        """Run every task; results come back in task order."""
        results: list[Optional[BatchResult]] = [None] * len(tasks)

        def finish(index: int, result: BatchResult) -> None:
            results[index] = result
            if progress is not None:
                progress(result)

        queue: deque[tuple[int, AnalysisTask, Optional[str]]] = deque()
        for index, task in enumerate(tasks):
            key, settled = settle_without_worker(
                task, self.options, self.cache, self.timeout
            )
            if settled is not None:
                finish(index, settled)
            else:
                queue.append((index, task, key))

        running: dict[int, _Running] = {}
        try:
            while queue or running:
                while queue and len(running) < self.jobs:
                    index, task, key = queue.popleft()
                    started = time.monotonic()
                    worker = WorkerProcess(self._context, _worker, task, self.options)
                    running[index] = _Running(worker, task, key, started)
                self._reap(running, finish)
        finally:
            for state in running.values():
                state.worker.kill()
        return fill_unreported(tasks, results)

    # ------------------------------------------------------------------ #
    def _reap(
        self,
        running: dict[int, _Running],
        finish: Callable[[int, BatchResult], None],
    ) -> None:
        """Wait briefly for workers, then settle every finished/overdue one."""
        multiprocessing.connection.wait(
            [state.worker.connection for state in running.values()], timeout=0.05
        )
        for index, state in list(running.items()):
            elapsed = time.monotonic() - state.started
            try:
                reply = state.worker.poll()
            except ConnectionError as error:
                state.worker.kill()
                result = BatchResult.failed(state.task, "crash", elapsed, str(error))
            else:
                if reply is not None:
                    # A worker that replied exits on its own: join, never kill.
                    state.worker.join()
                    result = self._replied(state, reply, elapsed)
                elif self.timeout is not None and elapsed > self.timeout:
                    state.worker.kill()
                    result = BatchResult.failed(
                        state.task,
                        "timeout",
                        elapsed,
                        f"exceeded the {self.timeout:g}s deadline",
                    )
                else:
                    continue
            del running[index]
            finish(index, result)

    def _replied(self, state: _Running, reply: tuple, elapsed: float) -> BatchResult:
        status, body = reply
        if status != "ok":
            return BatchResult.failed(state.task, "error", elapsed, str(body))
        if state.key is not None and self.cache is not None:
            self.cache.put(
                state.key, body, task_name=state.task.name, suite=state.task.suite
            )
        return BatchResult.succeeded(state.task, body, elapsed, False)


def summarize_batch(results: Sequence[BatchResult]) -> dict[str, Any]:
    """Aggregate counters for reports and CI logs.

    ``error`` (an exception inside the analysis, reported with a traceback)
    and ``crash`` (the worker process died without reporting) are distinct
    failure modes — a crash points at the engine or the environment, an
    error at the analysis — so they are counted separately.
    """
    return {
        "total": len(results),
        "ok": sum(result.outcome == "ok" for result in results),
        "proved": sum(bool(result.proved) for result in results),
        "timeout": sum(result.outcome == "timeout" for result in results),
        "error": sum(result.outcome == "error" for result in results),
        "crash": sum(result.outcome == "crash" for result in results),
        "cache_hits": sum(result.cache_hit for result in results),
        "wall_time": round(sum(result.wall_time for result in results), 3),
    }
