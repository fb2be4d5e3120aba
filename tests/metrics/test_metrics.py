"""Tests for latency statistics and CPU breakdowns."""

import pytest

from repro.errors import ExperimentError
from repro.metrics.cpu import CpuBreakdown
from repro.metrics.latency import LatencyCollector


class TestLatencyCollector:
    def test_percentiles_of_known_distribution(self):
        collector = LatencyCollector()
        collector.extend([i / 1000.0 for i in range(1, 1001)])
        stats = collector.stats()
        assert stats.count == 1000
        assert stats.p50 == pytest.approx(0.5, rel=0.01)
        assert stats.p99 == pytest.approx(0.99, rel=0.01)
        assert stats.maximum == pytest.approx(1.0)

    def test_warmup_samples_excluded(self):
        collector = LatencyCollector(warmup_end=1.0)
        collector.record(0.5, 0.010)
        collector.record(2.0, 0.020)
        stats = collector.stats()
        assert stats.count == 1
        assert stats.p50 == pytest.approx(0.020)

    def test_drops_counted_after_warmup_only(self):
        collector = LatencyCollector(warmup_end=1.0)
        collector.record_drop(0.5)
        collector.record_drop(2.0)
        assert collector.dropped == 1
        assert collector.stats().drop_rate == pytest.approx(1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ExperimentError):
            LatencyCollector().record(1.0, -0.001)

    def test_empty_collector_stats(self):
        stats = LatencyCollector().stats()
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_as_millis_conversion(self):
        collector = LatencyCollector()
        collector.extend([0.004, 0.012])
        millis = collector.stats().as_millis()
        assert millis["max_ms"] == pytest.approx(12.0)

    def test_percentile_helper(self):
        collector = LatencyCollector()
        collector.extend([0.001, 0.002, 0.003])
        assert collector.percentile(50) == pytest.approx(0.002)


class TestCpuBreakdown:
    def test_from_utilization(self):
        breakdown = CpuBreakdown.from_utilization(
            {"primary": 0.2, "secondary": 0.5, "os": 0.05, "idle": 0.25}
        )
        assert breakdown.busy == pytest.approx(0.75)
        assert breakdown.idle == pytest.approx(0.25)

    def test_missing_categories_default_to_zero(self):
        breakdown = CpuBreakdown.from_utilization({"idle": 1.0})
        assert breakdown.primary == 0.0
        assert breakdown.busy == 0.0
