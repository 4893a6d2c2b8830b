"""Unit coverage of the service client and loadtest harness (no sockets).

The network-facing behaviour (keep-alive, /v1 fallback, live load) is
covered by the integration suite; here the pure pieces are pinned —
percentile maths, URL parsing, envelope decoding, the open-loop schedule
driven through a stub client, and the BENCH_service.json entry shape.
"""

import json
import threading

import pytest

from repro.engine.loadtest import DEFAULT_PROGRAM, loadtest_entry, run_loadtest
from repro.engine.profile import percentile
from repro.service.client import (
    MalformedResponse,
    Response,
    ServiceClient,
    ServiceHTTPError,
    ServiceUnreachable,
    _parse_url,
)


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_single_sample_is_every_percentile(self):
        for q in (0, 50, 95, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_nearest_rank_returns_observed_values(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 0) == 1.0
        # Never interpolated: the result is always a member of the sample.
        for q in range(0, 101, 7):
            assert percentile(values, q) in values

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == percentile([1.0, 2.0, 3.0], 50)

    def test_out_of_range_rank_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_monotone_in_rank(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        quantiles = [percentile(values, q) for q in (10, 50, 90, 99)]
        assert quantiles == sorted(quantiles)


class TestParseUrl:
    def test_plain_host_port(self):
        assert _parse_url("http://127.0.0.1:8734") == ("127.0.0.1", 8734, "")

    def test_scheme_optional(self):
        assert _parse_url("127.0.0.1:8080") == ("127.0.0.1", 8080, "")

    def test_default_port(self):
        assert _parse_url("http://example.test") == ("example.test", 80, "")

    def test_path_prefix_kept_without_trailing_slash(self):
        assert _parse_url("http://h:1/svc/") == ("h", 1, "/svc")

    def test_https_is_rejected(self):
        with pytest.raises(ValueError):
            _parse_url("https://h:1")

    def test_empty_host_is_rejected(self):
        with pytest.raises(ValueError):
            _parse_url("http://")


class TestEnvelopeDecoding:
    def test_v1_envelope(self):
        document = {
            "error": {
                "code": "queue_full",
                "message": "full",
                "detail": {"capacity": 3},
            },
            "request_id": "r000042",
        }
        with pytest.raises(ServiceHTTPError) as error:
            ServiceClient._raise_http_error(429, document, {"Retry-After": "2"})
        assert error.value.status == 429
        assert error.value.code == "queue_full"
        assert error.value.message == "full"
        assert error.value.detail == {"capacity": 3}
        assert error.value.request_id == "r000042"
        assert error.value.retry_after == 2.0

    def test_legacy_string_error_body(self):
        with pytest.raises(ServiceHTTPError) as error:
            ServiceClient._raise_http_error(400, {"error": "bad thing"}, {})
        assert error.value.code == ""
        assert error.value.message == "bad thing"

    def test_non_object_body(self):
        with pytest.raises(ServiceHTTPError) as error:
            ServiceClient._raise_http_error(503, ["upstream down"], {})
        assert error.value.status == 503
        assert error.value.message == "HTTP 503"

    def test_malformed_retry_after_is_ignored(self):
        with pytest.raises(ServiceHTTPError) as error:
            ServiceClient._raise_http_error(429, {}, {"Retry-After": "soon"})
        assert error.value.retry_after is None

    def test_non_json_payload_is_malformed_response(self):
        with pytest.raises(MalformedResponse):
            ServiceClient._decode(b"<html>gateway</html>", 502)

    def test_response_properties(self):
        response = Response(200, {"ok": True}, {"X-Request-Id": "r1"}, 0.01)
        assert response.request_id == "r1"
        assert Response(200, {}, {}, 0.0).request_id == ""


class _StubClient:
    """A ServiceClient stand-in with a scripted per-call outcome."""

    _lock = threading.Lock()

    def __init__(self, outcomes, calls):
        self._outcomes = outcomes
        self._calls = calls

    def analyze(self, document, deadline_ms=None):
        with self._lock:
            index = len(self._calls)
            self._calls.append((dict(document), deadline_ms))
        outcome = self._outcomes[index % len(self._outcomes)]
        if isinstance(outcome, Exception):
            raise outcome
        return Response(outcome, {"outcome": "ok"}, {}, 0.001)

    def close(self):
        pass


class TestRunLoadtest:
    def _run(self, outcomes, rps=50, duration=0.2, **kwargs):
        calls = []

        def factory(url, timeout=None):
            return _StubClient(outcomes, calls)

        report = run_loadtest(
            "http://stub:1",
            rps=rps,
            duration=duration,
            concurrency=2,
            client_factory=factory,
            **kwargs,
        )
        return report, calls

    def test_all_served(self):
        report, calls = self._run([200])
        assert report["requested"] == 10
        assert report["completed"] == 10
        assert report["served_2xx"] == 10
        assert report["unreachable"] == 0
        assert report["throughput_rps"] > 0
        assert report["latency"]["p50_ms"] is not None
        assert report["latency"]["p50_ms"] <= report["latency"]["p99_ms"]
        assert all(document["source"] == DEFAULT_PROGRAM for document, _ in calls)

    def test_status_mix_is_classified(self):
        report, _ = self._run(
            [
                200,
                ServiceHTTPError(429, "queue_full", "full"),
                ServiceHTTPError(504, "deadline_exceeded", "late"),
                ServiceUnreachable("down"),
            ]
        )
        assert report["requested"] == 10
        assert report["served_2xx"] == 3
        assert report["rejected_429"] == 3
        assert report["deadline_504"] == 2
        assert report["unreachable"] == 2
        assert report["completed"] == 8
        assert report["statuses"] == {"200": 3, "429": 3, "504": 2, "unreachable": 2}

    def test_deadline_and_document_are_passed_through(self):
        report, calls = self._run([200], deadline_ms=250, document={"source": "x"})
        assert report["deadline_ms"] == 250
        assert calls and all(
            document == {"source": "x"} and deadline == 250
            for document, deadline in calls
        )

    def test_open_loop_schedule_is_not_closed_loop(self):
        # 10 requests at 50 rps take >= 0.18s of schedule even though every
        # stub call is instant: the generator paces, it does not burst.
        report, _ = self._run([200])
        assert report["elapsed_seconds"] >= 0.15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_loadtest("http://stub:1", rps=0)
        with pytest.raises(ValueError):
            run_loadtest("http://stub:1", duration=-1)
        with pytest.raises(ValueError):
            run_loadtest("http://stub:1", concurrency=0)


class TestLoadtestEntry:
    def test_entry_shape(self):
        report, _ = TestRunLoadtest()._run([200])
        entry = loadtest_entry(report, label="unit")
        assert entry["kind"] == "service"
        assert entry["suite"] == "service"
        assert entry["label"] == "unit"
        assert entry["created"].endswith("Z")
        assert {row["name"] for row in entry["rows"]} == {
            "analyze/p50",
            "analyze/p95",
            "analyze/p99",
        }
        for row in entry["rows"]:
            assert row["seconds"] >= 0
        assert entry["totals"]["served_2xx"] == 10
        assert entry["report"]["url"] == "http://stub:1"
        # The entry is JSON-serialisable as recorded.
        json.dumps(entry)

    def test_missing_latencies_drop_rows(self):
        entry = loadtest_entry(
            {"latency": {"p50_ms": None, "p95_ms": None, "p99_ms": None}}
        )
        assert entry["rows"] == []
