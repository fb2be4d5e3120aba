"""Tests for the IndexServe primary tenant."""

import dataclasses

import pytest

from repro.config.schema import IndexServeSpec
from repro.errors import TenantError
from repro.hostos.process import TenantCategory
from repro.tenants.indexserve import IndexServeTenant
from repro.units import GIB, millis
from repro.workloads.query_trace import QueryTrace


def small_spec(**overrides):
    base = IndexServeSpec(memory_footprint_bytes=1 * GIB)
    return dataclasses.replace(base, **overrides) if overrides else base


@pytest.fixture
def primary(big_kernel, streams):
    tenant = IndexServeTenant(big_kernel, small_spec(), rng=streams.stream("is"))
    tenant.start()
    return tenant


@pytest.fixture
def trace(streams):
    return QueryTrace(small_spec(), size=50, rng=streams.stream("trace"))


class TestLifecycle:
    def test_start_creates_primary_process(self, primary):
        assert primary.process.category == TenantCategory.PRIMARY
        assert primary.process.memory_bytes == 1 * GIB

    def test_double_start_rejected(self, big_kernel, streams):
        tenant = IndexServeTenant(big_kernel, small_spec(), rng=streams.stream("is2"), name="is2")
        tenant.start()
        with pytest.raises(TenantError):
            tenant.start()

    def test_submit_before_start_rejected(self, big_kernel, streams, trace):
        tenant = IndexServeTenant(big_kernel, small_spec(), rng=streams.stream("is3"), name="is3")
        with pytest.raises(TenantError):
            tenant.submit(trace[0])


class TestQueryProcessing:
    def test_query_completes_and_records_latency(self, engine, primary, trace):
        outcomes = []
        primary.submit(trace[0], callback=outcomes.append)
        engine.run(until=1.0)
        assert primary.completed == 1
        assert primary.dropped == 0
        assert len(outcomes) == 1
        assert not outcomes[0].dropped
        assert outcomes[0].latency > 0
        assert primary.collector.sample_count == 1

    def test_latency_at_least_longest_worker_burst(self, engine, primary, trace):
        query = trace[0]
        outcomes = []
        primary.submit(query, callback=outcomes.append)
        engine.run(until=1.0)
        assert outcomes[0].latency >= max(query.worker_demands)

    def test_many_queries_all_complete_on_idle_machine(self, engine, primary, trace):
        for index in range(20):
            engine.schedule(index * 0.01, primary.submit, trace[index % len(trace)])
        engine.run(until=2.0)
        assert primary.completed == 20
        assert primary.in_flight == 0

    def test_log_written_to_hdd(self, engine, primary, trace):
        primary.submit(trace[0])
        engine.run(until=1.0)
        assert primary.kernel.iostack.completions("indexserve", "hdd") >= 1

    def test_cache_misses_read_from_ssd(self, engine, big_kernel, streams):
        spec = small_spec(cache_miss_rate=1.0)
        tenant = IndexServeTenant(big_kernel, spec, rng=streams.stream("ssd"), name="is-ssd")
        tenant.start()
        trace = QueryTrace(spec, size=5, rng=streams.stream("ssd-trace"))
        tenant.submit(trace[0])
        engine.run(until=1.0)
        assert big_kernel.iostack.completions("is-ssd", "ssd") == trace[0].worker_count


class TestTimeouts:
    def test_slow_query_dropped(self, engine, big_kernel, streams):
        spec = small_spec(timeout=millis(1))
        tenant = IndexServeTenant(big_kernel, spec, rng=streams.stream("slow"), name="is-slow")
        tenant.start()
        trace = QueryTrace(small_spec(), size=5, rng=streams.stream("slow-trace"))
        outcomes = []
        tenant.submit(trace[0], callback=outcomes.append)
        engine.run(until=1.0)
        assert tenant.dropped == 1
        assert tenant.completed == 0
        assert outcomes and outcomes[0].dropped
        assert tenant.drop_rate() == 1.0

    def test_timeout_kills_outstanding_workers(self, engine, big_kernel, streams):
        spec = small_spec(timeout=millis(1))
        tenant = IndexServeTenant(big_kernel, spec, rng=streams.stream("kill"), name="is-kill")
        tenant.start()
        trace = QueryTrace(small_spec(), size=5, rng=streams.stream("kill-trace"))
        tenant.submit(trace[0])
        # Workers are spawned synchronously by submit; the process table keeps
        # only live threads, so capture them before they are killed.
        workers = tenant.process.live_threads()
        assert workers
        engine.run(until=1.0)
        assert all(t.terminated for t in workers)
        assert tenant.process.live_threads() == []


class TestAdaptiveParallelism:
    def test_backlog_triggers_worker_splitting(self, engine, big_kernel, streams):
        spec = small_spec(adaptive_threshold=2, adaptive_extra_workers=3)
        tenant = IndexServeTenant(big_kernel, spec, rng=streams.stream("ad"), name="is-ad")
        tenant.start()
        trace = QueryTrace(spec, size=20, rng=streams.stream("ad-trace"))
        for index in range(10):
            tenant.submit(trace[index])
        assert tenant.adaptive_boosts > 0

    def test_splitting_preserves_total_work(self, engine, big_kernel, streams):
        spec = small_spec(adaptive_threshold=0, adaptive_extra_workers=2,
                          adaptive_split_overhead=0.0, cache_miss_rate=0.0,
                          log_bytes_per_query=0)
        tenant = IndexServeTenant(big_kernel, spec, rng=streams.stream("work"), name="is-work")
        tenant.start()
        trace = QueryTrace(spec, size=3, rng=streams.stream("work-trace"))
        query = trace[0]
        tenant.submit(query)
        engine.run(until=1.0)
        expected = query.total_cpu_demand + spec.parse_cost + spec.aggregate_cost
        assert tenant.process.cpu_time == pytest.approx(expected, rel=0.01)

    def test_disabled_adaptive_never_boosts(self, engine, big_kernel, streams):
        spec = small_spec(adaptive_parallelism=False, adaptive_threshold=0)
        tenant = IndexServeTenant(big_kernel, spec, rng=streams.stream("no-ad"), name="is-no-ad")
        tenant.start()
        trace = QueryTrace(spec, size=10, rng=streams.stream("no-ad-trace"))
        for index in range(10):
            tenant.submit(trace[index])
        assert tenant.adaptive_boosts == 0
