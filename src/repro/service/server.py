"""The ``repro serve`` HTTP front-end: a single-event-loop asyncio server.

The service speaks a versioned HTTP API.  Every route is mounted under
``/v1/`` (``/v1/analyze``, ``/v1/batch``, ``/v1/lint``, ``/v1/healthz``,
``/v1/metrics``); any other path answers the ``not_found`` envelope below.
One ``asyncio`` event loop accepts **keep-alive and pipelined**
connections and parses HTTP/1.1 itself (stdlib only); analysis work is
dispatched to the forked :class:`~repro.service.pool.WorkerPool` through a
thread-pool executor, so a slow analysis never blocks the acceptor, health
checks, or metrics scrapes.

Three service-level-objective mechanisms wrap every analysis request:

**Bounded admission with backpressure.**  At most ``pool.workers +
backlog`` analysis requests (``/analyze`` + ``/batch``) are admitted at
once — the pool's workers plus a bounded queue waiting for one.  A request
beyond that is answered ``429 Too Many Requests`` with a ``Retry-After``
hint immediately, instead of queueing without bound and letting latency
grow until clients give up.

**Per-request deadlines.**  An ``X-Repro-Deadline-Ms`` header (or a
``"deadline_ms"`` body field) bounds the request end to end — queue wait
included.  The remaining budget is propagated into
:meth:`WorkerPool.submit <repro.service.pool.WorkerPool.submit>` as the
per-request timeout (it can only tighten the operator's ``--timeout``);
when the client's deadline expires the response is ``504`` with the
timeout record in the error detail, and the overrun worker is replaced, so
an expired request never holds a slot.

**Latency accounting.**  ``GET /v1/metrics`` reports, per route, p50/p95/
p99/mean latency over a ring buffer of recent requests, plus queue depth,
in-flight count, worker utilisation, total 2xx/4xx/5xx counts, and the
429/504 counters.  The percentiles are nearest-rank (:func:`percentile`),
and the analyze route's p50 is the 429 ``Retry-After`` hint.

Every non-2xx response carries one uniform envelope::

    {"error": {"code": "<machine_code>", "message": "...", "detail": {...}},
     "request_id": "..."}

with the request id echoed in an ``X-Request-Id`` header (2xx responses
carry the header only — analysis records stay bit-identical to ``repro
bench --json``).  Codes: ``bad_request``, ``not_found``,
``method_not_allowed``, ``payload_too_large``, ``queue_full``,
``deadline_exceeded``, ``internal``.

The routes themselves are unchanged in substance:

``POST /v1/analyze``
    Body: a JSON object ``{"source": "...", "procedure": null,
    "cost_variable": "cost", "substitutions": {"n": 8}, "kind":
    "analyze"}`` — everything but ``source`` optional — or the raw program
    text itself (``Content-Type: text/plain``).  The response is the same
    JSON record ``repro analyze --json`` prints
    (:meth:`repro.engine.batch.BatchResult.to_dict`), with HTTP 200 even
    for ``error``/``timeout`` outcomes: the record *is* the result (unless
    a client deadline expired — that is the 504 above).
``POST /v1/batch``
    Body: a whole suite — either ``{"suite": "table2"}`` (optionally with
    a boolean ``"full"``, ``"tool"``, ``"depth"``), resolved through the
    benchmark registry of :mod:`repro.benchlib.suites`, or an inline task list
    ``{"tasks": [...]}`` / a bare JSON list.  The response carries the
    same ordered ``BatchResult`` records ``repro bench --json`` prints,
    the batch totals, and a per-task incremental splice summary (see
    :func:`run_batch`).  A ``"deadline_ms"`` bounds the whole batch.
``POST /v1/lint``
    Body: ``{"source": "...", "severity": "info", "disable": [...]}``
    (everything but ``source`` optional) or the raw program text.  The
    response is ``{"ok": bool, "counts": {...}, "diagnostics": [...]}``
    with the diagnostic objects ``repro lint --json`` prints, HTTP 200
    whatever it finds; linting occupies neither an analysis worker nor an
    admission slot.
``GET /v1/healthz``
    Liveness: ``{"status": "ok", "workers": N}``.
``GET /v1/metrics``
    The SLO document described above, plus the pool counters under
    ``"pool"`` (requests, cache hits, incremental splice totals,
    restarts).
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import math
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..engine.batch import BatchResult, summarize_batch
from ..engine.cache import ResultCache
from ..engine.config import DEFAULT_SERVICE_PORT as DEFAULT_PORT
from ..engine.tasks import AnalysisTask, registered_kinds
from .pool import WorkerPool

__all__ = [
    "AnalysisServer",
    "ServiceMetrics",
    "percentile",
    "serve",
    "run_batch",
    "task_from_request",
    "tasks_from_batch_request",
    "API_VERSION",
    "DEFAULT_BACKLOG",
    "DEFAULT_PORT",
]

#: The mounted API version (route prefix ``/v1``).
API_VERSION = "v1"

#: Default admission queue length beyond the worker count: up to
#: ``workers + DEFAULT_BACKLOG`` analysis requests are in flight before the
#: service answers 429.
DEFAULT_BACKLOG = 16

#: Largest accepted request body (a whole inline task list fits easily).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Ring-buffer window of per-route latency samples behind the percentiles.
LATENCY_WINDOW = 512

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


# ---------------------------------------------------------------------- #
# Request-body parsing (shared by the async routes and their tests)
# ---------------------------------------------------------------------- #
def _integer_value(label: str, value: Any) -> int:
    """Coerce one request field to an exact integer.

    Booleans and non-integral numbers are rejected rather than silently
    truncated (``2.7`` used to become ``2`` and ``true`` become ``1``);
    integral floats (``2.0``) and integer strings are accepted.  ``label``
    names the field in the 400 error text (``substitution 'n'``,
    ``"depth"``).
    """
    if isinstance(value, bool):
        raise ValueError(f"{label} must be an integer, not a boolean")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{label} must be an integer, got {value!r}")
        return int(value)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be an integer, got {value!r}") from None


def _task_from_mapping(data: Mapping[str, Any]) -> AnalysisTask:
    """Build one analysis task from a request-shaped JSON object."""
    source = data.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError('"source" must be a non-empty string of program text')
    kind = data.get("kind", "analyze")
    if kind not in registered_kinds():
        known = ", ".join(registered_kinds())
        raise ValueError(f"unknown task kind {kind!r} (known: {known})")
    procedure = data.get("procedure")
    if procedure is not None and not isinstance(procedure, str):
        raise ValueError('"procedure" must be a string or null')
    cost_variable = data.get("cost_variable", "cost")
    if not isinstance(cost_variable, str):
        raise ValueError('"cost_variable" must be a string')
    substitutions = data.get("substitutions") or {}
    if isinstance(substitutions, Mapping):
        pairs = substitutions.items()
    elif isinstance(substitutions, (list, tuple)):
        pairs = substitutions
    else:
        raise ValueError('"substitutions" must be an object or a pair list')
    try:
        normalized = tuple(
            sorted(
                (str(name), _integer_value(f"substitution {str(name)!r}", value))
                for name, value in pairs
            )
        )
    except ValueError:
        raise
    except TypeError:
        raise ValueError('"substitutions" must be an object or a pair list') from None
    params = data.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValueError('"params" must be an object')
    suite = data.get("suite")
    if suite is not None and not isinstance(suite, str):
        raise ValueError('"suite" must be a string when given')
    return AnalysisTask(
        name=str(data.get("name", "request")),
        source=source,
        kind=kind,
        procedure=procedure,
        cost_variable=cost_variable,
        substitutions=normalized,
        params=tuple(sorted((str(key), value) for key, value in params.items())),
        suite=suite,
    )


def _json_object(body: bytes) -> Any:
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"request body is not valid JSON: {error}") from None
    if not isinstance(data, (dict, list)):
        raise ValueError("request body must be a JSON object")
    return data


def _deadline_ms_value(value: Any) -> float:
    """Validate one deadline: a positive, finite number of milliseconds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"the deadline must be a number of milliseconds, got {value!r}"
            ) from None
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(
            f"the deadline must be a positive number of milliseconds, got {value!r}"
        )
    return value


def lint_request(body: bytes, content_type: str) -> tuple[str, str, tuple[str, ...]]:
    """The ``(source, minimum severity, disabled codes)`` of ``POST /lint``.

    ``text/plain`` bodies are bare program text with the defaults (all
    severities, no code disabled); JSON bodies take ``"source"`` plus the
    optional ``"severity"`` and ``"disable"`` fields matching the CLI flags.
    Raises ``ValueError`` on malformed bodies (the 400 text).
    """
    from ..lint import SEVERITIES

    if content_type.startswith("text/plain"):
        return body.decode("utf-8", "replace"), SEVERITIES[-1], ()
    data = _json_object(body)
    if not isinstance(data, Mapping):
        raise ValueError("request body must be a JSON object")
    source = data.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError('"source" must be a non-empty string of program text')
    severity = data.get("severity", SEVERITIES[-1])
    if severity not in SEVERITIES:
        raise ValueError(
            f'"severity" must be one of {", ".join(SEVERITIES)}, got {severity!r}'
        )
    disabled = data.get("disable") or []
    if not isinstance(disabled, (list, tuple)) or not all(
        isinstance(code, str) for code in disabled
    ):
        raise ValueError('"disable" must be a list of diagnostic codes')
    return source, severity, tuple(disabled)


def task_from_request(
    body: bytes, content_type: str
) -> tuple[AnalysisTask, Optional[float]]:
    """The ``(task, deadline_ms)`` one ``POST /analyze`` request describes.

    Raises ``ValueError`` on malformed bodies; the error text is what the
    400 response carries.  ``deadline_ms`` is the body-level
    ``"deadline_ms"`` field (``None`` when absent; the header overrides it).
    """
    if content_type.startswith("text/plain"):
        data: Mapping[str, Any] = {"source": body.decode("utf-8", "replace")}
    else:
        data = _json_object(body)
        if not isinstance(data, Mapping):
            raise ValueError("request body must be a JSON object")
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = _deadline_ms_value(deadline_ms)
    return _task_from_mapping(data), deadline_ms


def tasks_from_batch_request(
    body: bytes,
) -> tuple[Optional[str], list[AnalysisTask], Optional[float]]:
    """The ``(suite label, tasks, deadline_ms)`` of one ``POST /batch`` body.

    Two shapes are accepted (see the module docstring): a suite reference
    resolved through :func:`repro.engine.suites.suite_tasks` — the same
    resolver ``repro bench`` uses, so the records come back identical — or
    an inline task list.  Raises ``ValueError`` on malformed bodies.
    """
    data = _json_object(body)
    if isinstance(data, list):
        data = {"tasks": data}
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = _deadline_ms_value(deadline_ms)
    suite = data.get("suite")
    if suite is not None:
        if not isinstance(suite, str):
            raise ValueError('"suite" must be a suite name string')
        tool = data.get("tool", "chora")
        if not isinstance(tool, str):
            raise ValueError('"tool" must be a string')
        depth = data.get("depth")
        if depth is not None:
            depth = _integer_value('"depth"', depth)
        full = data.get("full", False)
        if not isinstance(full, bool):
            raise ValueError('"full" must be true or false')
        from ..engine.suites import suite_tasks

        try:
            tasks = suite_tasks(suite, full, tool, depth)
        except (KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            raise ValueError(str(message)) from None
        return suite, tasks, deadline_ms
    items = data.get("tasks")
    if not isinstance(items, list) or not items:
        raise ValueError(
            'batch body must be {"suite": NAME, ...}, {"tasks": [...]}'
            " or a non-empty JSON list of task objects"
        )
    tasks = []
    for index, item in enumerate(items):
        if not isinstance(item, Mapping):
            raise ValueError(f"task #{index} must be a JSON object")
        try:
            tasks.append(_task_from_mapping(item))
        except ValueError as error:
            raise ValueError(f"task #{index}: {error}") from None
    return None, tasks, deadline_ms


def run_batch(
    pool: WorkerPool,
    tasks: Sequence[AnalysisTask],
    suite: Optional[str] = None,
    progress: Optional[Callable[[BatchResult], None]] = None,
    deadline: Optional[float] = None,
) -> tuple[list[BatchResult], dict[str, Any]]:
    """Fan a task batch over the warm pool and build the batch document.

    This is the single suite-serving path: the ``POST /batch`` route and
    ``repro bench --engine warm`` both run through it, so a served suite
    returns exactly the records a local warm bench prints.  The document
    adds a per-task ``incremental`` splice summary (the
    :class:`~repro.core.incremental.IncrementalReport` shape per record).
    ``deadline`` is an absolute ``time.monotonic()`` bound on the whole
    batch (see :meth:`WorkerPool.run_with_meta`).
    """
    results, metas = pool.run_with_meta(tasks, progress=progress, deadline=deadline)
    incremental = []
    for task, result, meta in zip(tasks, results, metas):
        report = meta.get("incremental") or {"analyzed": [], "reused": []}
        incremental.append(
            {
                "name": task.name,
                "cache_hit": result.cache_hit,
                "analyzed": list(report.get("analyzed", ())),
                "reused": list(report.get("reused", ())),
            }
        )
    document = {
        "suite": suite,
        "engine": "warm",
        "results": [result.to_dict() for result in results],
        "incremental": incremental,
        "totals": summarize_batch(results),
    }
    return results, document


# ---------------------------------------------------------------------- #
# SLO metrics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-th percentile of ``values`` (None when empty).

    Nearest-rank rather than interpolated: every reported latency is a
    latency some request actually saw, which is what an SLO gauge wants.
    Used by the ``/v1/metrics`` percentiles and the 429 ``Retry-After`` hint.
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


@dataclass
class _RouteMetrics:
    """Latency accounting of one route: counters + a sample ring buffer."""

    count: int = 0
    total_seconds: float = 0.0
    window: "collections.deque[float]" = field(
        default_factory=lambda: collections.deque(maxlen=LATENCY_WINDOW)
    )

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        self.window.append(seconds)

    def to_dict(self) -> dict[str, Any]:
        samples = list(self.window)

        def ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value * 1000.0, 3)

        return {
            "count": self.count,
            "window": len(samples),
            "p50_ms": ms(percentile(samples, 50)),
            "p95_ms": ms(percentile(samples, 95)),
            "p99_ms": ms(percentile(samples, 99)),
            "mean_ms": ms(sum(samples) / len(samples) if samples else None),
            "max_ms": ms(max(samples) if samples else None),
        }


class ServiceMetrics:
    """The numbers behind ``GET /v1/metrics``.

    Mutated only from the event-loop thread (route handlers run there;
    executor results are observed there), so no locking is needed.
    """

    def __init__(self) -> None:
        self.started = time.time()
        self.routes: dict[str, _RouteMetrics] = {}
        self.status_classes: dict[str, int] = {"2xx": 0, "4xx": 0, "5xx": 0}
        self.rejected_429 = 0
        self.deadline_504 = 0

    def record(self, route: str, status: int, seconds: float) -> None:
        self.routes.setdefault(route, _RouteMetrics()).record(seconds)
        bucket = f"{status // 100}xx"
        self.status_classes[bucket] = self.status_classes.get(bucket, 0) + 1
        if status == 429:
            self.rejected_429 += 1
        if status == 504:
            self.deadline_504 += 1

    def analyze_p50(self) -> Optional[float]:
        """The analyze route's p50 seconds (the ``Retry-After`` hint)."""
        route = self.routes.get("analyze")
        return percentile(list(route.window), 50) if route else None

    def document(
        self, capacity: int, admitted: int, pool: WorkerPool
    ) -> dict[str, Any]:
        busy = pool.busy_workers()
        responses = dict(self.status_classes)
        responses["total"] = sum(self.status_classes.values())
        return {
            "uptime_seconds": round(time.time() - self.started, 1),
            "queue": {
                "capacity": capacity,
                "in_flight": admitted,
                "depth": max(0, admitted - pool.workers),
            },
            "workers": {
                "total": pool.workers,
                "busy": busy,
                "utilisation": round(busy / pool.workers, 3) if pool.workers else 0.0,
            },
            "pool": pool.stats_dict(),
            "responses": responses,
            "rejected_429": self.rejected_429,
            "deadline_504": self.deadline_504,
            "latency_window": LATENCY_WINDOW,
            "routes": {
                name: route.to_dict() for name, route in sorted(self.routes.items())
            },
        }


# ---------------------------------------------------------------------- #
# HTTP plumbing
# ---------------------------------------------------------------------- #
class _HttpError(Exception):
    """A routed request that must answer a non-2xx envelope."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Optional[dict[str, Any]] = None,
        headers: Sequence[tuple[str, str]] = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail or {}
        self.headers = list(headers)


@dataclass
class _Request:
    """One parsed HTTP request."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        connection = self.header("connection").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one HTTP/1.1 request off the stream (None on clean EOF).

    Raises :class:`_HttpError` on malformed input and ``ConnectionError``/
    ``asyncio.IncompleteReadError`` when the peer goes away mid-request.
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise _HttpError(400, "bad_request", "request line too long") from None
    if not line:
        return None
    try:
        text = line.decode("latin-1").strip()
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes anything
        raise _HttpError(400, "bad_request", "undecodable request line") from None
    if not text:
        return None
    parts = text.split()
    if len(parts) == 2:
        method, target, version = parts[0], parts[1], "HTTP/1.0"
    elif len(parts) == 3:
        method, target, version = parts
    else:
        raise _HttpError(400, "bad_request", f"malformed request line {text!r}")
    headers: dict[str, str] = {}
    for _ in range(128):
        try:
            raw = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(400, "bad_request", "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        name, separator, value = raw.decode("latin-1").partition(":")
        if not separator:
            raise _HttpError(400, "bad_request", "malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "bad_request", "too many header lines")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HttpError(
            400, "bad_request", f"malformed Content-Length {length_text!r}"
        ) from None
    if length < 0:
        raise _HttpError(400, "bad_request", "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise _HttpError(
            413,
            "payload_too_large",
            f"request body of {length} bytes exceeds the"
            f" {MAX_BODY_BYTES}-byte limit",
        )
    body = await reader.readexactly(length) if length else b""
    return _Request(
        method=method.upper(),
        target=target,
        version=version,
        headers=headers,
        body=body,
    )


class AnalysisServer:
    """An asyncio HTTP front-end over a :class:`WorkerPool`.

    The socket is bound in the constructor (so ``port=0`` resolves before
    serving starts and a bind failure never leaks the caller's forked
    pool); :meth:`serve_forever` then runs the event loop until
    :meth:`shutdown` — which is thread-safe and blocks until the loop has
    wound down, mirroring ``http.server``'s contract so existing callers
    (the CLI, tests driving the server from a thread) are unchanged.
    """

    #: Advertised in the ``Server`` response header.
    VERSION_STRING = "repro-serve/3"

    ROUTES: dict[str, str] = {
        "analyze": "POST",
        "batch": "POST",
        "lint": "POST",
        "healthz": "GET",
        "metrics": "GET",
    }

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        verbose: bool = False,
        backlog: int = DEFAULT_BACKLOG,
        sock: Optional[socket.socket] = None,
    ):
        self.pool = pool
        self.verbose = verbose
        self.backlog = max(0, int(backlog))
        self.capacity = pool.workers + self.backlog
        self.metrics = ServiceMetrics()
        if sock is None:
            # Binding can fail (port already in use); the pool handed in
            # must not leak its forked workers when it does.
            try:
                sock = socket.create_server((host, port))
            except BaseException:
                pool.close()
                raise
        self._socket = sock
        self._socket.setblocking(False)
        # Every admitted analysis request owns one executor thread for the
        # duration of its (blocking) pool call, so the executor is sized to
        # the admission capacity: admission control is the real limiter.
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.capacity), thread_name_prefix="repro-serve"
        )
        self._request_ids = itertools.count(1)
        self._admitted = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._started = False
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved even when 0 was asked."""
        host, port = self._socket.getsockname()[:2]
        return str(host), int(port)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or interrupt)."""
        self._started = True
        self._stopped.clear()
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(self._main())
        finally:
            try:
                for task in asyncio.all_tasks(loop):
                    task.cancel()
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:  # pragma: no cover - cleanup best effort
                pass
            loop.close()
            self._loop = None
            self._stopped.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        if self._stop.is_set():
            # shutdown() raced serve_forever() before the loop existed.
            return
        server = await asyncio.start_server(self._on_connection, sock=self._socket)
        try:
            await self._wake.wait()
        finally:
            server.close()
            for task in list(self._connections):
                task.cancel()
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - close best effort
                pass

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` (thread-safe; waits for the loop)."""
        self._stop.set()
        loop, wake = self._loop, self._wake
        if loop is not None and wake is not None:
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._started:
            self._stopped.wait(timeout=30)

    def close(self) -> None:
        self._executor.shutdown(wait=False)
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already closed by the loop
            pass
        self.pool.close()

    # ------------------------------------------------------------------ #
    # Connection handling: keep-alive + pipelining
    # ------------------------------------------------------------------ #
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> "asyncio.Task":
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        return task

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Requests on one connection are handled strictly in order, so
        # pipelined clients get their responses in request order for free;
        # concurrency comes from having many connections on one loop.
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as error:
                    # The stream is unparseable from here on: answer the
                    # envelope and close.
                    self._write_response(
                        writer,
                        error.status,
                        self._envelope(error, self._next_request_id()),
                        error.headers,
                        keep_alive=False,
                        request_id=None,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive
                started = time.monotonic()
                request_id = self._next_request_id()
                status, document, headers, route = await self._dispatch(
                    request, request_id
                )
                self._write_response(
                    writer,
                    status,
                    document,
                    headers,
                    keep_alive=keep_alive,
                    request_id=request_id,
                )
                await writer.drain()
                self.metrics.record(route, status, time.monotonic() - started)
                if self.verbose:
                    elapsed = time.monotonic() - started
                    print(
                        f"repro serve: {request.method} {request.target}"
                        f" -> {status} [{request_id}] {elapsed * 1000:.1f}ms",
                        flush=True,
                    )
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            TimeoutError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _next_request_id(self) -> str:
        return f"r{next(self._request_ids):06d}"

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, request: _Request, request_id: str
    ) -> tuple[int, dict[str, Any], list[tuple[str, str]], str]:
        """Route one request; returns (status, document, headers, route)."""
        path = request.target.split("?", 1)[0]
        prefix = f"/{API_VERSION}/"
        # Every route lives under /v1; an unversioned path names no route.
        name = path[len(prefix) :] if path.startswith(prefix) else ""
        route_label = name if name in self.ROUTES else "other"
        try:
            if name not in self.ROUTES:
                raise _HttpError(
                    404, "not_found", f"no such path {path!r}"
                )
            expected = self.ROUTES[name]
            if request.method != expected:
                raise _HttpError(
                    405,
                    "method_not_allowed",
                    f"{path} accepts {expected}, not {request.method}",
                    headers=[("Allow", expected)],
                )
            handler = getattr(self, f"_route_{name}")
            status, document, extra = await handler(request)
            return status, document, list(extra), name
        except _HttpError as error:
            return (
                error.status,
                self._envelope(error, request_id),
                error.headers,
                route_label,
            )
        except Exception as error:
            # The pool can fail out from under a request (a closed pool
            # during shutdown raises RuntimeError): answer 500 with the
            # envelope instead of dropping the connection with a stderr
            # traceback.
            if self.verbose:
                traceback.print_exc()
            wrapped = _HttpError(
                500, "internal", str(error) or error.__class__.__name__
            )
            return (
                500,
                self._envelope(wrapped, request_id),
                [],
                route_label,
            )

    @staticmethod
    def _envelope(error: _HttpError, request_id: str) -> dict[str, Any]:
        return {
            "error": {
                "code": error.code,
                "message": error.message,
                "detail": error.detail,
            },
            "request_id": request_id,
        }

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Mapping[str, Any],
        headers: Sequence[tuple[str, str]],
        keep_alive: bool,
        request_id: Optional[str],
    ) -> None:
        body = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
        phrase = _STATUS_PHRASES.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {phrase}",
            f"Server: {self.VERSION_STRING}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if request_id is not None:
            lines.append(f"X-Request-Id: {request_id}")
        lines.extend(f"{name}: {value}" for name, value in headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)

    # ------------------------------------------------------------------ #
    # Admission control + deadlines
    # ------------------------------------------------------------------ #
    def _admit(self) -> None:
        """Take one admission slot or answer 429 (event-loop thread only)."""
        if self._admitted >= self.capacity:
            p50 = self.metrics.analyze_p50()
            retry_after = max(1, int(math.ceil(p50))) if p50 else 1
            raise _HttpError(
                429,
                "queue_full",
                f"the admission queue is full ({self._admitted} requests"
                f" in flight, capacity {self.capacity}); retry later",
                detail={
                    "capacity": self.capacity,
                    "in_flight": self._admitted,
                    "workers": self.pool.workers,
                },
                headers=[("Retry-After", str(retry_after))],
            )
        self._admitted += 1

    def _release(self) -> None:
        self._admitted = max(0, self._admitted - 1)

    def _deadline_from(
        self, request: _Request, body_deadline_ms: Optional[float]
    ) -> tuple[Optional[float], Optional[float]]:
        """The ``(deadline_ms, absolute monotonic deadline)`` of a request.

        The ``X-Repro-Deadline-Ms`` header wins over the body field.  The
        absolute deadline anchors at admission, so queue wait counts
        against the client's budget.
        """
        header = request.header("x-repro-deadline-ms")
        deadline_ms = body_deadline_ms
        if header:
            try:
                deadline_ms = _deadline_ms_value(header)
            except ValueError as error:
                raise _HttpError(
                    400, "bad_request", f"X-Repro-Deadline-Ms: {error}"
                ) from None
        if deadline_ms is None:
            return None, None
        return deadline_ms, time.monotonic() + deadline_ms / 1000.0

    def _submit_blocking(
        self, task: AnalysisTask, deadline_at: Optional[float]
    ) -> tuple[BatchResult, dict]:
        """Run in an executor thread: pool submit under the remaining budget."""
        if deadline_at is None:
            return self.pool.submit_with_meta(task)
        remaining = max(0.0, deadline_at - time.monotonic())
        return self.pool.submit_with_meta(task, timeout=remaining)

    def _run_batch_blocking(
        self,
        tasks: Sequence[AnalysisTask],
        suite: Optional[str],
        deadline_at: Optional[float],
    ) -> dict[str, Any]:
        _, document = run_batch(self.pool, tasks, suite=suite, deadline=deadline_at)
        return document

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    async def _route_analyze(
        self, request: _Request
    ) -> tuple[int, dict[str, Any], list[tuple[str, str]]]:
        try:
            task, body_deadline = task_from_request(
                request.body, request.header("content-type", "application/json")
            )
        except ValueError as error:
            raise _HttpError(400, "bad_request", str(error)) from None
        deadline_ms, deadline_at = self._deadline_from(request, body_deadline)
        self._admit()
        try:
            result, _ = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._submit_blocking, task, deadline_at
            )
        finally:
            self._release()
        if (
            deadline_at is not None
            and result.outcome == "timeout"
            and time.monotonic() >= deadline_at
        ):
            raise _HttpError(
                504,
                "deadline_exceeded",
                f"the request exceeded its {deadline_ms:g}ms deadline",
                detail={"deadline_ms": deadline_ms, "result": result.to_dict()},
            )
        if result.outcome == "error" and result.detail.startswith("invalid-program:"):
            # Front-end rejections (parse errors, unsupported constructs,
            # lint-gate errors) are the client's fault, not a server failure.
            raise _HttpError(
                400,
                "invalid_program",
                result.detail[len("invalid-program:") :].strip(),
                detail={"result": result.to_dict()},
            )
        return 200, result.to_dict(), []

    async def _route_batch(
        self, request: _Request
    ) -> tuple[int, dict[str, Any], list[tuple[str, str]]]:
        try:
            suite, tasks, deadline_ms = tasks_from_batch_request(request.body)
        except ValueError as error:
            raise _HttpError(400, "bad_request", str(error)) from None
        deadline_ms, deadline_at = self._deadline_from(request, deadline_ms)
        self._admit()
        try:
            document = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._run_batch_blocking, tasks, suite, deadline_at
            )
        finally:
            self._release()
        totals = document.get("totals", {})
        if (
            deadline_at is not None
            and totals.get("timeout")
            and time.monotonic() >= deadline_at
        ):
            raise _HttpError(
                504,
                "deadline_exceeded",
                f"the batch exceeded its {deadline_ms:g}ms deadline"
                f" ({totals.get('timeout')} of {totals.get('total')} tasks"
                " timed out)",
                detail={"deadline_ms": deadline_ms, "totals": totals},
            )
        return 200, document, []

    def _lint_blocking(
        self, source: str, severity: str, disabled: tuple[str, ...]
    ) -> list:
        from ..lint import filter_diagnostics, lint_source

        return filter_diagnostics(lint_source(source), severity, disabled)

    async def _route_lint(
        self, request: _Request
    ) -> tuple[int, dict[str, Any], list[tuple[str, str]]]:
        """Lint one program; always 200 with the diagnostics document.

        Lint findings — including parse errors (``R000``) — are the
        *content* of the answer, not request failures, so only a malformed
        request body earns a non-2xx envelope.  Linting is front-end-only
        work (no analysis), so it takes no admission slot and runs on the
        loop's default executor: the admission executor's threads may all
        be waiting on analyses.
        """
        try:
            source, severity, disabled = lint_request(
                request.body, request.header("content-type", "application/json")
            )
        except ValueError as error:
            raise _HttpError(400, "bad_request", str(error)) from None
        diagnostics = await asyncio.to_thread(
            self._lint_blocking, source, severity, disabled
        )
        counts: dict[str, int] = {}
        for diagnostic in diagnostics:
            counts[diagnostic.severity] = counts.get(diagnostic.severity, 0) + 1
        document = {
            "ok": counts.get("error", 0) == 0,
            "counts": counts,
            "diagnostics": [diagnostic.to_dict() for diagnostic in diagnostics],
        }
        return 200, document, []

    async def _route_healthz(
        self, request: _Request
    ) -> tuple[int, dict[str, Any], list[tuple[str, str]]]:
        return 200, {"status": "ok", "workers": self.pool.workers}, []

    async def _route_metrics(
        self, request: _Request
    ) -> tuple[int, dict[str, Any], list[tuple[str, str]]]:
        document = self.metrics.document(self.capacity, self._admitted, self.pool)
        return 200, document, []


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    workers: int = 2,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    verbose: bool = False,
    backlog: int = DEFAULT_BACKLOG,
) -> AnalysisServer:
    """Build a ready-to-run server (the CLI calls ``serve_forever`` on it).

    The socket is bound *before* the worker pool is forked: a bind failure
    (port already in use) used to leak a fully started pool of worker
    processes that nothing would ever stop.
    """
    sock = socket.create_server((host, port))
    try:
        pool = WorkerPool(workers=workers, timeout=timeout, cache=cache)
    except BaseException:
        sock.close()
        raise
    return AnalysisServer(pool, verbose=verbose, backlog=backlog, sock=sock)
