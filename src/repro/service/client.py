"""One HTTP client for the ``repro serve`` API, shared by every caller.

``repro batch --url`` and the integration tests both talk to the service
through :class:`ServiceClient`, so request framing, the ``/v1`` route
prefix, error-envelope decoding and keep-alive handling live in exactly
one place.

The client is stdlib-only (``http.client``) and holds **one persistent
keep-alive connection** — ``urllib.request`` closes the socket after every
call, which would make a latency measurement time TCP handshakes instead
of the service.  One instance therefore serves one thread; concurrent
callers each build their own.

Failures are typed rather than stringly:

* :class:`ServiceHTTPError` — the service answered a non-2xx envelope;
  carries the machine ``code``, human ``message``, ``detail`` object,
  ``request_id`` and any ``Retry-After`` hint.
* :class:`ServiceUnreachable` — no HTTP conversation happened at all
  (refused, reset mid-request beyond the one keep-alive retry, timed out).
* :class:`MalformedResponse` — the peer spoke, but not this protocol.

All three derive from :class:`ServiceError`.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Mapping, Optional
from urllib.parse import urlsplit

__all__ = [
    "MalformedResponse",
    "Response",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPError",
    "ServiceUnreachable",
]

#: A keep-alive connection can die between requests (server restart, idle
#: timeout); these are the "stale socket" shapes worth one silent retry on
#: a fresh connection.  ``RemoteDisconnected`` subclasses both
#: ``BadStatusLine`` and ``ConnectionResetError``, listed for clarity.
_RETRYABLE = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class ServiceError(Exception):
    """Anything that stops a service call from returning its document."""


class ServiceUnreachable(ServiceError):
    """The service never answered (connect refused, reset, timeout)."""


class MalformedResponse(ServiceError):
    """The peer answered, but not with this API's JSON."""


class ServiceHTTPError(ServiceError):
    """A non-2xx response, decoded from the uniform error envelope."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Optional[Mapping[str, Any]] = None,
        request_id: str = "",
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"{status} {code}: {message}" if code else f"{status}")
        self.status = status
        self.code = code
        self.message = message
        self.detail = dict(detail or {})
        self.request_id = request_id
        self.retry_after = retry_after


class Response:
    """One decoded 2xx response."""

    def __init__(
        self,
        status: int,
        document: Any,
        headers: Mapping[str, str],
        latency: float,
    ) -> None:
        self.status = status
        self.document = document
        self.headers = dict(headers)
        self.latency = latency

    @property
    def request_id(self) -> str:
        return self.headers.get("X-Request-Id", "")


def _parse_url(url: str) -> tuple[str, int, str]:
    """``(host, port, path prefix)`` of a service base URL."""
    if "//" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    if parts.scheme not in ("http", ""):
        raise ValueError(f"only http:// service URLs are supported, got {url!r}")
    if not parts.hostname:
        raise ValueError(f"no host in service URL {url!r}")
    return parts.hostname, parts.port or 80, parts.path.rstrip("/")


class ServiceClient:
    """A keep-alive client for one ``repro serve`` endpoint.

    Every route is requested under ``/v1``.  Not thread-safe (one
    underlying connection): give each thread its own instance.
    """

    def __init__(self, url: str, timeout: Optional[float] = 300.0) -> None:
        self.host, self.port, self.prefix = _parse_url(url)
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #
    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def _round_trip(
        self, method: str, path: str, body: Optional[bytes], headers: Mapping[str, str]
    ) -> tuple[int, bytes, dict[str, str]]:
        """One request/response on the persistent connection.

        A stale keep-alive socket (the server went away between requests)
        gets one retry on a fresh connection; a failure on that fresh
        connection is the real answer.
        """
        for attempt in (1, 2):
            connection = self._connect()
            fresh = connection.sock is None
            try:
                connection.request(method, path, body=body, headers=dict(headers))
                response = connection.getresponse()
                payload = response.read()
                return response.status, payload, dict(response.getheaders())
            except _RETRYABLE as error:
                self.close()
                if fresh or attempt == 2:
                    raise ServiceUnreachable(
                        f"http://{self.host}:{self.port}: connection lost: {error}"
                    ) from error
            except (socket.timeout, TimeoutError) as error:
                self.close()
                raise ServiceUnreachable(
                    f"http://{self.host}:{self.port}: timed out after"
                    f" {self.timeout}s"
                ) from error
            except (http.client.HTTPException, OSError) as error:
                self.close()
                raise ServiceUnreachable(
                    f"http://{self.host}:{self.port}: {error}"
                ) from error
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _decode(payload: bytes, status: int) -> Any:
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise MalformedResponse(
                f"the service answered {status} with a non-JSON body: {error}"
            ) from None

    @staticmethod
    def _raise_http_error(
        status: int, document: Any, headers: Mapping[str, str]
    ) -> None:
        code, message, detail, request_id = "", "", {}, ""
        if isinstance(document, Mapping):
            request_id = str(document.get("request_id", ""))
            envelope = document.get("error")
            if isinstance(envelope, Mapping):
                code = str(envelope.get("code", ""))
                message = str(envelope.get("message", ""))
                raw_detail = envelope.get("detail")
                detail = raw_detail if isinstance(raw_detail, Mapping) else {}
            elif isinstance(envelope, str):
                # Pre-v1 services sent {"error": "text"}.
                message = envelope
        retry_after: Optional[float] = None
        raw_retry = headers.get("Retry-After")
        if raw_retry is not None:
            try:
                retry_after = float(raw_retry)
            except ValueError:
                retry_after = None
        raise ServiceHTTPError(
            status,
            code,
            message or f"HTTP {status}",
            detail,
            request_id,
            retry_after,
        )

    def request(
        self,
        method: str,
        route: str,
        document: Optional[Any] = None,
        deadline_ms: Optional[float] = None,
        retries_429: int = 0,
    ) -> Response:
        """Call one route (``"healthz"``, ``"batch"``, ...) and decode it.

        ``deadline_ms`` is sent as ``X-Repro-Deadline-Ms``; its expiry
        surfaces as a :class:`ServiceHTTPError` with status 504 and code
        ``deadline_exceeded``.

        ``retries_429`` bounds how many times a 429 backpressure answer is
        retried (after honouring the service's ``Retry-After`` hint, with a
        capped exponential fallback when the hint is missing) before the
        error is raised.  The default keeps the historical fail-fast
        behaviour; ``repro batch --retry-429`` opts in.
        """
        rejections = 0
        while True:
            try:
                return self._request_once(method, route, document, deadline_ms)
            except ServiceHTTPError as error:
                if error.status != 429 or rejections >= max(0, retries_429):
                    raise
                rejections += 1
                delay = error.retry_after
                if delay is None:
                    delay = 0.5 * (2 ** (rejections - 1))
                time.sleep(min(max(delay, 0.0), 30.0))

    def _request_once(
        self,
        method: str,
        route: str,
        document: Optional[Any] = None,
        deadline_ms: Optional[float] = None,
    ) -> Response:
        body = None
        headers: dict[str, str] = {"Connection": "keep-alive"}
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if deadline_ms is not None:
            headers["X-Repro-Deadline-Ms"] = f"{deadline_ms:g}"
        path = f"{self.prefix}/v1/{route.lstrip('/')}"
        started = time.monotonic()
        status, payload, response_headers = self._round_trip(
            method, path, body, headers
        )
        decoded = self._decode(payload, status)
        if status >= 300:
            self._raise_http_error(status, decoded, response_headers)
        return Response(status, decoded, response_headers, time.monotonic() - started)

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def analyze(
        self, document: Mapping[str, Any], deadline_ms: Optional[float] = None
    ) -> Response:
        return self.request("POST", "analyze", document, deadline_ms)

    def batch(
        self,
        document: Any,
        deadline_ms: Optional[float] = None,
        retries_429: int = 0,
    ) -> Response:
        return self.request("POST", "batch", document, deadline_ms, retries_429)

    def healthz(self) -> Response:
        return self.request("GET", "healthz")

    def metrics(self) -> Response:
        return self.request("GET", "metrics")
