"""Property-based tests (hypothesis) for core data structures and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import BlindIsolationSpec
from repro.core.policies import BlindIsolationPolicy, ControllerObservation
from repro.errors import SchedulerError
from repro.hardware.memory import MemorySubsystem
from repro.hardware.topology import CpuTopology
from repro.hostos.thread import core_mask, mask_cores
from repro.metrics.latency import LatencyCollector
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams


class TestEventQueueProperties:
    """The engine's event queue: time order and lazy cancellation."""

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_events_pop_in_nondecreasing_time_order(self, times):
        engine = SimulationEngine()
        popped = []
        for time in times:
            engine.schedule_at(time, lambda: popped.append(engine.now))
        engine.run()
        assert popped == sorted(times)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=100),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_cancellation_never_loses_live_events(self, times, data):
        engine = SimulationEngine()
        events = [engine.schedule_at(time, lambda: None) for time in times]
        to_cancel = data.draw(st.sets(st.integers(min_value=0, max_value=len(events) - 1)))
        for index in to_cancel:
            engine.cancel(events[index])
        live = len(times) - len(to_cancel)
        assert engine.pending_events == live
        engine.run()
        assert engine.events_executed == live
        assert engine.pending_events == 0


def observe(total_cores, idle_cores, current_core_count):
    """One poll's observation carrying only the idle-core signal."""
    return ControllerObservation(
        now=0.0,
        total_cores=total_cores,
        idle_cores=idle_cores,
        current_core_count=current_core_count,
        poll_interval=0.0,
    )


class TestBlindIsolationProperties:
    @given(
        buffer_cores=st.integers(min_value=0, max_value=16),
        idle=st.integers(min_value=0, max_value=48),
        current=st.integers(min_value=0, max_value=48),
    )
    @settings(max_examples=200, deadline=None)
    def test_allocation_always_within_bounds(self, buffer_cores, idle, current):
        """S stays in [min_secondary, total - buffer] for any observation."""
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=buffer_cores))
        decision = policy.decide(observe(total_cores=48, idle_cores=idle, current_core_count=current))
        if decision is not None:
            assert 0 <= decision.core_count <= 48 - buffer_cores

    @given(
        idle=st.integers(min_value=0, max_value=48),
        current=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_adjustment_direction_matches_paper_rule(self, idle, current):
        """If I < B the allocation never grows; if I > B it never shrinks."""
        buffer_cores = 8
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=buffer_cores))
        decision = policy.decide(observe(48, idle, current))
        if decision is None:
            return
        if idle < buffer_cores:
            assert decision.core_count <= current
        elif idle > buffer_cores:
            assert decision.core_count >= current

    @given(idle=st.integers(min_value=0, max_value=48))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point_reached_within_machine_size_steps(self, idle):
        """Repeatedly applying the rule with a constant observation converges."""
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        current = 40
        for _ in range(60):
            decision = policy.decide(observe(48, idle, current))
            if decision is None:
                break
            current = decision.core_count
        else:
            raise AssertionError("policy did not converge")


class TestTopologyProperties:
    @given(
        sockets=st.integers(min_value=1, max_value=4),
        cores=st.integers(min_value=1, max_value=16),
        smt=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_sibling_groups_partition_the_machine(self, sockets, cores, smt):
        topology = CpuTopology(sockets, cores, smt)
        seen = set()
        for core_id in range(topology.logical_core_count):
            group = topology.siblings(core_id)
            assert core_id in group
            assert len(group) == smt
            seen.update(group)
        assert seen == set(range(topology.logical_core_count))

    @given(
        sockets=st.integers(min_value=1, max_value=2),
        cores=st.integers(min_value=1, max_value=8),
        smt=st.integers(min_value=1, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_mask_round_trip(self, sockets, cores, smt, data):
        """``core_mask`` and ``mask_cores`` invert each other on any machine's
        core ids (the empty set included); a negative id is refused."""
        topology = CpuTopology(sockets, cores, smt)
        ids = data.draw(
            st.sets(st.integers(min_value=0, max_value=topology.logical_core_count - 1))
        )
        assert mask_cores(core_mask(sorted(ids))) == frozenset(ids)
        negative = data.draw(st.integers(max_value=-1))
        with pytest.raises(SchedulerError):
            core_mask([*sorted(ids), negative])

    @given(
        sockets=st.integers(min_value=1, max_value=2),
        cores=st.integers(min_value=1, max_value=8),
        smt=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_secondary_allocation_order_is_a_permutation(self, sockets, cores, smt):
        topology = CpuTopology(sockets, cores, smt)
        order = topology.secondary_allocation_order()
        assert sorted(order) == list(range(topology.logical_core_count))


class TestMemoryProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(min_value=1, max_value=1000)),
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_used_plus_free_equals_capacity(self, operations):
        memory = MemorySubsystem(1_000_000)
        for owner, size in operations:
            if memory.free_bytes >= size:
                memory.allocate(owner, size)
        assert memory.used_bytes + memory.free_bytes == memory.capacity_bytes
        assert memory.used_bytes == sum(memory.owners().values())


class TestLatencyCollectorProperties:
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0, allow_nan=False), min_size=1,
                    max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_are_monotone_and_bounded(self, samples):
        collector = LatencyCollector()
        collector.extend(samples)
        stats = collector.stats()
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.p999 <= stats.maximum
        assert min(samples) <= stats.p50
        assert stats.maximum == max(samples)
        assert stats.count == len(samples)

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_random_streams_reproducible(self, seed, name):
        a = RandomStreams(seed).stream(name).random(3)
        b = RandomStreams(seed).stream(name).random(3)
        assert list(a) == list(b)
