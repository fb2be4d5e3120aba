"""Property-based tests (hypothesis) for the CPU isolation policies.

The invariants PerfIso's safety story rests on (Section 3.1):

* the secondary's core allocation never exceeds ``total_cores - buffer_cores``
  (the buffer is inviolable), as long as the floor fits under the ceiling;
* allocations are never negative and rate decisions stay inside ``(0, 1]``;
* blind isolation is *monotone* in the observed idle-core count — seeing more
  idle cores can never shrink the secondary, seeing fewer can never grow it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import BlindIsolationSpec, CpuCycleSpec, StaticCoreSpec
from repro.core.policies import (
    BlindIsolationPolicy,
    ControllerObservation,
    CpuCyclesPolicy,
    NoIsolationPolicy,
    StaticCoresPolicy,
)


def observe(total, idle, current):
    """One poll's observation carrying only the idle-core signal."""
    return ControllerObservation(
        now=0.0,
        total_cores=total,
        idle_cores=idle,
        current_core_count=current,
        poll_interval=0.0,
    )


@st.composite
def blind_cases(draw):
    """A consistent (spec, total, idle, current) tuple for blind isolation."""
    total = draw(st.integers(min_value=2, max_value=128))
    buffer_cores = draw(st.integers(min_value=0, max_value=total - 1))
    min_secondary = draw(st.integers(min_value=0, max_value=total - buffer_cores))
    max_step = draw(st.integers(min_value=0, max_value=8))
    spec = BlindIsolationSpec(
        buffer_cores=buffer_cores,
        min_secondary_cores=min_secondary,
        max_step=max_step,
    )
    idle = draw(st.integers(min_value=0, max_value=total))
    current = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=total))
    )
    return spec, total, idle, current


def resolved_target(policy, total, idle, current):
    """The core count in effect after one poll (``None`` decision = no change)."""
    if current is None:
        current = policy.max_secondary(total)
    decision = policy.decide(observe(total, idle, current))
    return current if decision is None else decision.core_count


class TestBlindIsolationProperties:
    @given(blind_cases())
    @settings(max_examples=300, deadline=None)
    def test_allocation_never_exceeds_total_minus_buffer(self, case):
        spec, total, idle, current = case
        policy = BlindIsolationPolicy(spec)
        ceiling = max(spec.min_secondary_cores, total - spec.buffer_cores)

        initial = policy.initial_decision(total)
        assert initial.core_count is not None
        assert 0 <= initial.core_count <= ceiling

        decision = policy.decide(observe(total, idle, current))
        if decision is not None:
            assert decision.core_count is not None
            assert 0 <= decision.core_count <= ceiling

    @given(blind_cases())
    @settings(max_examples=300, deadline=None)
    def test_buffer_is_inviolable_when_floor_fits(self, case):
        spec, total, idle, current = case
        if spec.min_secondary_cores > total - spec.buffer_cores:
            return  # floor overrides the buffer by construction
        policy = BlindIsolationPolicy(spec)
        decision = policy.decide(observe(total, idle, current))
        if decision is not None:
            assert decision.core_count <= total - spec.buffer_cores

    @given(blind_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_idle_cores(self, case, data):
        """More idle cores never shrink the secondary, fewer never grow it.

        Stated over the states the controller can actually reach: ``current``
        inside ``[min_secondary_cores, max_secondary]`` (the initial decision
        starts there and every decision stays there, per the band properties
        above) or ``None``.
        """
        spec, total, idle, current = case
        policy = BlindIsolationPolicy(spec)
        if current is not None and not (
            spec.min_secondary_cores <= current <= policy.max_secondary(total)
        ):
            current = policy.max_secondary(total)
        other_idle = data.draw(
            st.integers(min_value=0, max_value=total), label="other_idle"
        )
        low, high = sorted((idle, other_idle))
        assert resolved_target(policy, total, low, current) <= resolved_target(
            policy, total, high, current
        )

    @given(blind_cases())
    @settings(max_examples=200, deadline=None)
    def test_no_change_when_idle_equals_buffer(self, case):
        spec, total, _, current = case
        policy = BlindIsolationPolicy(spec)
        assert policy.decide(observe(total, spec.buffer_cores, current)) is None

    @given(blind_cases())
    @settings(max_examples=200, deadline=None)
    def test_step_bound_respected_inside_feasible_band(self, case):
        spec, total, idle, current = case
        policy = BlindIsolationPolicy(spec)
        ceiling = policy.max_secondary(total)
        if spec.max_step == 0 or current is None:
            return
        if not spec.min_secondary_cores <= current <= ceiling:
            return  # covered by test_out_of_band_current_moves_back_toward_band
        decision = policy.decide(observe(total, idle, current))
        if decision is not None:
            assert abs(decision.core_count - current) <= spec.max_step

    @given(blind_cases())
    @settings(max_examples=200, deadline=None)
    def test_out_of_band_current_moves_back_toward_band(self, case):
        """Safety beats smoothing: an infeasible allocation is pulled back to
        the band even when that exceeds ``max_step``."""
        spec, total, idle, current = case
        policy = BlindIsolationPolicy(spec)
        ceiling = policy.max_secondary(total)
        if current is None or spec.min_secondary_cores <= current <= ceiling:
            return
        target = resolved_target(policy, total, idle, current)
        if target != current:  # any move must land inside the band
            assert spec.min_secondary_cores <= target <= ceiling


class TestStaticPolicies:
    @given(
        st.integers(min_value=1, max_value=128),
        st.integers(min_value=0, max_value=256),
        st.integers(min_value=0, max_value=128),
    )
    @settings(max_examples=200, deadline=None)
    def test_static_cores_clamped_and_inert(self, total, cores, idle):
        policy = StaticCoresPolicy(StaticCoreSpec(secondary_cores=cores))
        initial = policy.initial_decision(total)
        assert 0 <= initial.core_count <= total
        assert policy.decide(observe(total, idle, initial.core_count)) is None

    @given(
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=128),
    )
    @settings(max_examples=200, deadline=None)
    def test_cpu_cycles_rate_in_unit_interval_and_inert(self, total, fraction, idle):
        policy = CpuCyclesPolicy(CpuCycleSpec(cpu_fraction=fraction))
        initial = policy.initial_decision(total)
        assert initial.cpu_rate is not None
        assert 0.0 < initial.cpu_rate <= 1.0
        assert policy.decide(observe(total, idle, None)) is None

    @given(st.integers(min_value=1, max_value=128), st.integers(min_value=0, max_value=128))
    @settings(max_examples=100, deadline=None)
    def test_no_isolation_always_unrestricted(self, total, idle):
        policy = NoIsolationPolicy()
        assert policy.initial_decision(total).unrestricted
        assert policy.decide(observe(total, idle, None)) is None
