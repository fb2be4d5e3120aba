"""Tests for the synthetic query trace generator."""

import numpy as np
import pytest

from repro.config.schema import IndexServeSpec
from repro.errors import TenantError
from repro.workloads.query_trace import QueryTrace


class TestQueryTrace:
    def test_trace_size(self, rng):
        trace = QueryTrace(IndexServeSpec(), size=100, rng=rng)
        assert len(trace) == 100

    def test_zero_size_rejected(self, rng):
        with pytest.raises(TenantError):
            QueryTrace(IndexServeSpec(), size=0, rng=rng)

    def test_worker_counts_within_bounds(self, rng):
        spec = IndexServeSpec()
        trace = QueryTrace(spec, size=500, rng=rng)
        for query in trace.queries():
            assert spec.workers_per_query_min <= query.worker_count <= spec.workers_per_query_max
            assert len(query.cache_misses) == query.worker_count

    def test_mean_worker_count_near_spec(self, rng):
        spec = IndexServeSpec()
        trace = QueryTrace(spec, size=3000, rng=rng)
        assert trace.mean_worker_count() == pytest.approx(spec.workers_per_query_mean, rel=0.2)

    def test_miss_rate_near_spec(self, rng):
        spec = IndexServeSpec(cache_miss_rate=0.3)
        trace = QueryTrace(spec, size=3000, rng=rng)
        misses = sum(sum(query.cache_misses) for query in trace.queries())
        workers = sum(query.worker_count for query in trace.queries())
        assert misses / workers == pytest.approx(0.3, abs=0.05)

    def test_demands_positive_and_capped(self, rng):
        spec = IndexServeSpec()
        trace = QueryTrace(spec, size=500, rng=rng)
        for query in trace.queries():
            for demand in query.worker_demands:
                assert 0 < demand <= spec.worker_service_cap

    def test_deterministic_for_same_rng_seed(self):
        spec = IndexServeSpec()
        a = QueryTrace(spec, size=50, rng=np.random.default_rng(1))
        b = QueryTrace(spec, size=50, rng=np.random.default_rng(1))
        assert a.queries() == b.queries()

    def test_cycle_wraps_around(self, rng):
        trace = QueryTrace(IndexServeSpec(), size=3, rng=rng)
        cycle = trace.cycle()
        ids = [next(cycle).query_id for _ in range(7)]
        assert ids == [0, 1, 2, 0, 1, 2, 0]

    def test_total_cpu_demand_property(self, rng):
        trace = QueryTrace(IndexServeSpec(), size=10, rng=rng)
        query = trace[0]
        assert query.total_cpu_demand == pytest.approx(sum(query.worker_demands))


class TestInlinedGenerationMatchesModels:
    """QueryTrace inlines the fan-out/service-time models for speed; the two
    formulations must stay draw-for-draw identical or traces silently drift
    from the documented model."""

    def test_trace_equals_model_driven_reconstruction(self):
        from repro.units import millis
        from repro.workloads.service_time import (
            WorkerFanoutModel,
            WorkerServiceTimeModel,
        )

        spec = IndexServeSpec()
        trace = QueryTrace(spec, size=200, rng=np.random.default_rng(123))

        # Rebuild the same trace through the reference model objects, drawing
        # from an identically-seeded generator in the documented order.
        rng = np.random.default_rng(123)
        fanout = WorkerFanoutModel(spec, rng)
        service = WorkerServiceTimeModel(spec, rng)
        for query in trace.queries():
            workers = fanout.sample()
            demands = tuple(float(d) for d in service.sample(workers))
            misses = tuple(bool(m) for m in rng.random(workers) < spec.cache_miss_rate)
            assert query.worker_demands == demands
            assert query.cache_misses == misses
