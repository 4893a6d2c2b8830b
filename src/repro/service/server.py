"""The ``repro serve`` HTTP front-end: the stdlib's threaded HTTP server.

The service speaks a versioned HTTP API.  Every route is mounted under
``/v1/`` (``/v1/analyze``, ``/v1/lint``, ``/v1/healthz``, ``/v1/metrics``);
any other path answers the ``not_found`` envelope below.
:class:`http.server.ThreadingHTTPServer` gives every connection its own
daemon thread, which reads **keep-alive and pipelined** requests in order
off the stdlib's buffered reader and makes the blocking call to the forked
:class:`~repro.service.pool.WorkerPool` itself, so a slow analysis holds
only its own connection, never the acceptor, health checks, or metrics
scrapes.

Three service-level-objective mechanisms wrap every analysis request:

**Bounded admission with backpressure.**  At most ``pool.workers +
backlog`` analysis requests (``/v1/analyze``) are admitted at once — the
pool's workers plus a bounded queue waiting for one.  A request beyond
that is answered ``429 Too Many Requests`` with a ``Retry-After`` hint
immediately, instead of queueing without bound and letting latency grow
until clients give up.

**Per-request deadlines.**  An ``X-Repro-Deadline-Ms`` header (or a
``"deadline_ms"`` body field) bounds the request end to end — queue wait
included: :meth:`WorkerPool.submit <repro.service.pool.WorkerPool.submit>`
bounds its wait for an idle worker by it, then runs the worker under what
is left (which can only tighten the operator's ``--timeout``).  When the
client's deadline expires the response is ``504`` with the timeout record
in the error detail; a request that expires while queued never engages a
worker, and an overrun worker is replaced, so an expired request never
holds a slot.

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
bench --json``).  Codes: ``bad_request`` and ``invalid_program`` (400),
``not_found``, ``method_not_allowed``, ``payload_too_large``,
``queue_full``, ``internal``, ``deadline_exceeded``.  A request whose
framing cannot be parsed gets its envelope, then a closed connection.

``POST /v1/analyze``
    Body: a JSON object ``{"source": "...", "procedure": null,
    "cost_variable": "cost", "substitutions": {"n": 8}, "kind":
    "analyze"}`` — everything but ``source`` optional; ``"name"``,
    ``"params"`` and ``"suite"`` make a suite row sent as a body the task
    ``repro bench`` runs, with the same cache key — or the raw program text
    itself (``Content-Type: text/plain``).  The response is the same JSON
    record ``repro analyze --json`` prints
    (:meth:`repro.engine.batch.BatchResult.to_dict`), with HTTP 200 even
    for ``error``/``timeout`` outcomes: the record *is* the result (unless
    a client deadline expired — that is the 504 above).
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

import collections
import contextlib
import http.server
import itertools
import json
import math
import socket
import socketserver
import threading
import time
import traceback
from dataclasses import dataclass, field
from email.message import Message
from http import HTTPStatus
from typing import Any, Iterator, Mapping, Optional, Sequence

from ..engine.cache import ResultCache
from ..engine.config import DEFAULT_SERVICE_PORT as DEFAULT_PORT
from ..engine.tasks import AnalysisTask, registered_kinds, substitution_pairs
from .pool import WorkerPool

__all__ = [
    "AnalysisServer",
    "ServiceMetrics",
    "percentile",
    "serve",
    "task_from_request",
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

#: Largest accepted request body.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Longest accepted request line (the stdlib's limit on a header line).
MAX_LINE_BYTES = 64 * 1024

#: Ring-buffer window of per-route latency samples behind the percentiles.
LATENCY_WINDOW = 512


# ---------------------------------------------------------------------- #
# Request-body parsing (shared by the routes and their tests)
# ---------------------------------------------------------------------- #
def _integer_value(label: str, value: Any) -> int:
    """Coerce one request field to an exact integer.

    Booleans and non-integral numbers are rejected rather than silently
    truncated (``2.7`` used to become ``2`` and ``true`` become ``1``);
    integral floats (``2.0``) and integer strings are accepted.  ``label``
    names the field in the 400 error text (``substitution 'n'``).
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
    elif isinstance(substitutions, (list, tuple)) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in substitutions
    ):
        pairs = substitutions
    else:
        raise ValueError('"substitutions" must be an object or a pair list')
    normalized = substitution_pairs(
        (str(name), _integer_value(f"substitution {str(name)!r}", value))
        for name, value in pairs
    )
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


def _json_object(body: bytes) -> Mapping[str, Any]:
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"request body is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    return data


def _deadline_ms_value(value: Any) -> float:
    """Validate one deadline: a positive, finite number of milliseconds.

    Booleans are rejected: ``float(True)`` would make ``true`` a 1 ms
    deadline.
    """
    message = f"the deadline must be a number of milliseconds, got {value!r}"
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(message) from None
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
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = _deadline_ms_value(deadline_ms)
    return _task_from_mapping(data), deadline_ms


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

    Not locked itself: :class:`AnalysisServer` calls it under the one lock
    that also guards its admission counter.
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
# HTTP front-end
# ---------------------------------------------------------------------- #
@dataclass(eq=False)
class _HttpError(Exception):
    """A request that must answer a non-2xx envelope."""

    status: int
    code: str
    message: str
    detail: dict[str, Any] = field(default_factory=dict)
    headers: Sequence[tuple[str, str]] = ()


class _Handler(http.server.BaseHTTPRequestHandler):
    """One connection's thread: it reads each request off the stdlib's
    buffered reader in turn (keep-alive, pipelining) and answers it."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: "AnalysisServer"

    def handle(self) -> None:
        # The peer may go away, or close() shut the connection, at any point.
        with contextlib.suppress(ConnectionError):
            super().handle()

    def send_error(self, code: int, message: Optional[str] = None, explain=None):
        # The stdlib parser (parse_request) reports a request line or header
        # block it rejects here; it is answered like every framing error.
        raise _HttpError(400, "bad_request", message or HTTPStatus(code).phrase)

    def handle_one_request(self) -> None:
        self.requestline = ""
        self.raw_requestline = self.rfile.readline(MAX_LINE_BYTES + 1)
        try:
            if len(self.raw_requestline) > MAX_LINE_BYTES:
                raise _HttpError(400, "bad_request", "request line too long")
            if not self.parse_request():
                return  # end of stream, or a blank line: close
            if self.headers.defects:
                raise _HttpError(400, "bad_request", "malformed header line")
            body = self._read_body()
        except _HttpError as error:
            # The stream cannot be parsed past this point: answer and close.
            self.close_connection = True
            self._answer("other", time.monotonic(), error=error)
            return
        started = time.monotonic()
        path = self.path.split("?", 1)[0]
        prefix = f"/{API_VERSION}/"
        # Every route lives under /v1; an unversioned path names no route.
        name = path[len(prefix) :] if path.startswith(prefix) else ""
        route = name if name in self.server.ROUTES else "other"
        try:
            if route == "other":
                raise _HttpError(404, "not_found", f"no such path {path!r}")
            expected, method = self.server.ROUTES[route], self.command.upper()
            if method != expected:
                raise _HttpError(
                    405,
                    "method_not_allowed",
                    f"{path} accepts {expected}, not {method}",
                    headers=[("Allow", expected)],
                )
            document = getattr(self.server, f"_route_{route}")(self.headers, body)
        except _HttpError as error:
            self._answer(route, started, error=error)
        except Exception as error:
            # The pool can fail out from under a request (a closed pool
            # during shutdown raises RuntimeError): answer 500 with the
            # envelope instead of dropping the connection.
            if self.server.verbose:
                traceback.print_exc()
            message = str(error) or error.__class__.__name__
            self._answer(route, started, error=_HttpError(500, "internal", message))
        else:
            self._answer(route, started, document)

    def _read_body(self) -> bytes:
        """The request body, framed by its ``Content-Length``."""
        coding = self.headers.get("transfer-encoding")
        if coding is not None:
            message = f"unsupported Transfer-Encoding {coding!r}; send a Content-Length"
            raise _HttpError(400, "bad_request", message)
        length_text = self.headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(
                400, "bad_request", f"malformed Content-Length {length_text!r}"
            )
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the"
                f" {MAX_BODY_BYTES}-byte limit",
            )
        body = self.rfile.read(length)
        if len(body) != length:
            raise ConnectionResetError("the peer closed mid-body")
        return body

    def _answer(
        self,
        route: str,
        started: float,
        document: Any = None,
        error: Optional[_HttpError] = None,
    ) -> None:
        """Write one answer: every response the service sends is built here."""
        server = self.server
        status, headers = (200, ()) if error is None else (error.status, error.headers)
        elapsed = time.monotonic() - started
        # Counted before the write, so a client that has read this answer
        # finds it in the next /v1/metrics document.
        with server._lock:
            request_id = f"r{next(server._request_ids):06d}"
            server.metrics.record(route, status, elapsed)
        if error is not None:
            document = {
                "error": {
                    "code": error.code,
                    "message": error.message,
                    "detail": error.detail,
                },
                "request_id": request_id,
            }
        body = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Server: {server.VERSION_STRING}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if self.close_connection else 'keep-alive'}",
            f"X-Request-Id: {request_id}",
            *(f"{name}: {value}" for name, value in headers),
        ]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(head + body)
        if server.verbose:
            print(
                f"repro serve: {self.requestline} -> {status} [{request_id}]"
                f" {elapsed * 1000:.1f}ms",
                flush=True,
            )


class AnalysisServer(http.server.ThreadingHTTPServer):
    """The ``/v1`` HTTP front-end over a :class:`WorkerPool`.

    Each connection gets its own daemon thread, which makes the blocking
    pool or lint call itself.  The socket is bound in the
    constructor (so ``port=0`` resolves before serving starts and a bind
    failure never leaks the caller's forked pool); :meth:`serve_forever`
    accepts connections until :meth:`shutdown`, which another thread calls
    and which waits for the accept loop to stop (as in ``socketserver``, it
    blocks until ``serve_forever`` has run), and :meth:`close` ends every
    open connection, stops the pool and joins the connection threads.
    """

    #: Advertised in the ``Server`` response header.
    VERSION_STRING = "repro-serve/3"

    ROUTES: dict[str, str] = {
        "analyze": "POST",
        "lint": "POST",
        "healthz": "GET",
        "metrics": "GET",
    }

    daemon_threads = True

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        verbose: bool = False,
        backlog: int = DEFAULT_BACKLOG,
        sock: Optional[socket.socket] = None,
    ):
        if sock is None:
            # Binding can fail (port already in use); the pool handed in
            # must not leak its forked workers when it does.
            try:
                sock = socket.create_server((host, port))
            except BaseException:
                pool.close()
                raise
        # The socket is already bound and listening: skip TCPServer's own.
        socketserver.BaseServer.__init__(self, sock.getsockname()[:2], _Handler)
        self.socket = sock
        self.pool = pool
        self.verbose = verbose
        self.backlog = max(0, int(backlog))
        self.capacity = pool.workers + self.backlog
        self.metrics = ServiceMetrics()
        self._request_ids = itertools.count(1)
        # One lock for the admission counter, the metrics, the request ids
        # and the open connections, which every connection thread touches.
        self._lock = threading.Lock()
        self._admitted = 0
        self._connections: set[socket.socket] = set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved even when 0 was asked."""
        host, port = self.socket.getsockname()[:2]
        return str(host), int(port)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Accept connections until :meth:`shutdown` (or an interrupt); the
        stdlib's 0.5 s poll for ``shutdown`` would add that much to a stop."""
        super().serve_forever(poll_interval)

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close(self) -> None:
        """End every open connection, stop the pool, join the connections."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):  # already closed by its peer
                connection.shutdown(socket.SHUT_RDWR)
        self.pool.close()
        self.server_close()

    # ------------------------------------------------------------------ #
    # Admission control + deadlines
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _admission(self) -> Iterator[None]:
        """Hold one admission slot for the block, or answer 429."""
        with self._lock:
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
        try:
            yield
        finally:
            with self._lock:
                self._admitted -= 1

    @staticmethod
    def _deadline_from(
        headers: Message, body_deadline_ms: Optional[float]
    ) -> tuple[Optional[float], Optional[float]]:
        """The ``(deadline_ms, absolute monotonic deadline)`` of a request.

        The ``X-Repro-Deadline-Ms`` header wins over the body field.  The
        absolute deadline anchors at admission, so queue wait counts
        against the client's budget.
        """
        header = headers.get("x-repro-deadline-ms")
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

    # ------------------------------------------------------------------ #
    # Routes: each returns the 200 document or raises _HttpError
    # ------------------------------------------------------------------ #
    def _route_analyze(self, headers: Message, body: bytes) -> dict[str, Any]:
        try:
            task, body_deadline = task_from_request(
                body, headers.get("content-type", "application/json")
            )
        except ValueError as error:
            raise _HttpError(400, "bad_request", str(error)) from None
        deadline_ms, deadline_at = self._deadline_from(headers, body_deadline)
        # The pool counts its wait for an idle worker against this budget.
        timeout = None if deadline_ms is None else deadline_ms / 1000.0
        with self._admission():
            result = self.pool.submit(task, timeout=timeout)
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
        return result.to_dict()

    def _route_lint(self, headers: Message, body: bytes) -> dict[str, Any]:
        """Lint one program; always 200 with the diagnostics document.

        Lint findings — including parse errors (``R000``) — are the
        *content* of the answer, not request failures, so only a malformed
        request body earns a non-2xx envelope.  Linting is front-end-only
        work (no analysis), so it takes no admission slot.
        """
        from ..lint import filter_diagnostics, lint_source

        try:
            source, severity, disabled = lint_request(
                body, headers.get("content-type", "application/json")
            )
        except ValueError as error:
            raise _HttpError(400, "bad_request", str(error)) from None
        diagnostics = filter_diagnostics(lint_source(source), severity, disabled)
        counts: dict[str, int] = {}
        for diagnostic in diagnostics:
            counts[diagnostic.severity] = counts.get(diagnostic.severity, 0) + 1
        return {
            "ok": counts.get("error", 0) == 0,
            "counts": counts,
            "diagnostics": [diagnostic.to_dict() for diagnostic in diagnostics],
        }

    def _route_healthz(self, headers: Message, body: bytes) -> dict[str, Any]:
        return {"status": "ok", "workers": self.pool.workers}

    def _route_metrics(self, headers: Message, body: bytes) -> dict[str, Any]:
        with self._lock:
            return self.metrics.document(self.capacity, self._admitted, self.pool)


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
