"""Unit coverage of the ``/v1/metrics`` numbers (no sockets).

The network-facing behaviour (keep-alive, live concurrent clients) is
covered by the integration suite; here the pure pieces are pinned —
percentile maths and the metrics accounting behind ``/v1/metrics`` and the
429 ``Retry-After`` hint.
"""

import json

import pytest

from repro.service.server import (
    LATENCY_WINDOW,
    ServiceMetrics,
    _RouteMetrics,
    percentile,
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



class _StubPool:
    """The three things ``ServiceMetrics.document`` reads off a worker pool."""

    def __init__(self, workers, busy):
        self.workers = workers
        self._busy = busy

    def busy_workers(self):
        return self._busy

    def stats_dict(self):
        return {"workers": self.workers}


class TestServiceMetrics:
    def test_status_mix_is_classified(self):
        metrics = ServiceMetrics()
        for status in (200, 200, 200, 429, 429, 429, 504, 504, 400):
            metrics.record("analyze", status, 0.01)
        assert metrics.status_classes == {"2xx": 3, "4xx": 4, "5xx": 2}
        assert metrics.rejected_429 == 3
        assert metrics.deadline_504 == 2

    def test_each_route_is_timed_separately(self):
        metrics = ServiceMetrics()
        metrics.record("analyze", 200, 0.5)
        metrics.record("analyze", 200, 0.25)
        metrics.record("healthz", 200, 0.001)
        assert sorted(metrics.routes) == ["analyze", "healthz"]
        assert metrics.routes["analyze"].count == 2
        assert metrics.routes["analyze"].total_seconds == pytest.approx(0.75)
        assert metrics.routes["healthz"].count == 1

    def test_route_percentiles_are_reported_in_milliseconds(self):
        metrics = ServiceMetrics()
        samples = [0.004, 0.001, 0.003, 0.002, 0.1]
        for seconds in samples:
            metrics.record("analyze", 200, seconds)
        row = metrics.routes["analyze"].to_dict()
        assert row["count"] == row["window"] == 5
        assert row["p50_ms"] == 3.0
        assert row["p95_ms"] == row["p99_ms"] == row["max_ms"] == 100.0
        assert row["mean_ms"] == 22.0

    def test_empty_route_reports_no_latency(self):
        row = _RouteMetrics().to_dict()
        assert row["count"] == row["window"] == 0
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"):
            assert row[key] is None, key

    def test_latency_window_keeps_only_recent_samples(self):
        metrics = ServiceMetrics()
        for _ in range(LATENCY_WINDOW):
            metrics.record("analyze", 200, 1.0)
        for _ in range(LATENCY_WINDOW):
            metrics.record("analyze", 200, 0.001)
        row = metrics.routes["analyze"].to_dict()
        # Every response is counted, but the slow ones have aged out of
        # the window the percentiles are taken over.
        assert row["count"] == 2 * LATENCY_WINDOW
        assert row["window"] == LATENCY_WINDOW
        assert row["p99_ms"] == row["max_ms"] == 1.0

    def test_analyze_p50_is_none_before_analyze_traffic(self):
        metrics = ServiceMetrics()
        assert metrics.analyze_p50() is None
        metrics.record("batch", 200, 3.0)
        metrics.record("healthz", 200, 0.001)
        assert metrics.analyze_p50() is None

    def test_analyze_p50_reads_only_the_analyze_route(self):
        metrics = ServiceMetrics()
        for seconds in (0.5, 2.5, 1.5):
            metrics.record("analyze", 200, seconds)
        metrics.record("batch", 200, 60.0)
        assert metrics.analyze_p50() == 1.5

    def test_document_reports_queue_workers_and_routes(self):
        metrics = ServiceMetrics()
        metrics.record("analyze", 200, 0.02)
        metrics.record("analyze", 429, 0.001)
        metrics.record("healthz", 200, 0.001)
        document = metrics.document(18, 5, _StubPool(workers=2, busy=1))
        assert document["queue"] == {"capacity": 18, "in_flight": 5, "depth": 3}
        assert document["workers"] == {"total": 2, "busy": 1, "utilisation": 0.5}
        assert document["pool"] == {"workers": 2}
        assert document["responses"] == {"2xx": 2, "4xx": 1, "5xx": 0, "total": 3}
        assert document["rejected_429"] == 1
        assert document["deadline_504"] == 0
        assert document["latency_window"] == LATENCY_WINDOW
        assert list(document["routes"]) == ["analyze", "healthz"]
        assert document["routes"]["analyze"]["count"] == 2
        # The document is served as JSON as it stands.
        json.dumps(document)

    def test_queue_depth_is_never_negative(self):
        document = ServiceMetrics().document(18, 1, _StubPool(workers=2, busy=1))
        assert document["queue"]["depth"] == 0
        assert document["responses"]["total"] == 0
        assert document["routes"] == {}
