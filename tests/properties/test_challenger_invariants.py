"""Property-based tests (hypothesis) for the challenger controllers.

The dynamic controllers added next to blind isolation (PID, MPC,
utilisation-target, oracle) must obey the same safety envelope:

* every core-count decision stays inside ``[min_secondary_cores,
  max_secondary(total)]`` — a controller may never allocate the secondary
  more than the machine minus its reserve/headroom, nor go below the floor;
* controllers are deterministic — two fresh instances fed the identical
  observation stream emit the identical decision sequence;
* the utilisation controller never churns inside its deadband.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import (
    MpcControlSpec,
    OracleControlSpec,
    PerfIsoSpec,
    PidControlSpec,
    UtilizationTargetSpec,
)
from repro.core.policies import (
    ControllerObservation,
    ModelPredictivePolicy,
    OraclePolicy,
    PidPolicy,
    UtilizationTargetPolicy,
)

#: The PID set point: PerfIso's default SLO.
SLO_P99 = PerfIsoSpec().slo_p99


@st.composite
def observations(draw, with_latency=False, with_forecast=False):
    """A single internally-consistent controller observation."""
    total = draw(st.integers(min_value=2, max_value=128))
    idle = draw(st.integers(min_value=0, max_value=total))
    current = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=total)))
    p99 = None
    if with_latency:
        p99 = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            )
        )
    peak = None
    if with_forecast:
        peak = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False),
            )
        )
    return ControllerObservation(
        now=draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        total_cores=total,
        idle_cores=idle,
        current_core_count=current,
        poll_interval=draw(st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)),
        windowed_p99=p99,
        forecast_peak_qps=peak,
    )


@st.composite
def pid_specs(draw):
    return PidControlSpec(
        kp=draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
        ki=draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        kd=draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        max_step=draw(st.integers(min_value=0, max_value=16)),
        min_secondary_cores=draw(st.integers(min_value=0, max_value=8)),
        reserve_cores=draw(st.integers(min_value=0, max_value=8)),
    )


@st.composite
def capacity_specs(draw, cls):
    kwargs = dict(
        qps_per_core=draw(st.floats(min_value=1.0, max_value=1000.0, allow_nan=False)),
        headroom_cores=draw(st.integers(min_value=0, max_value=8)),
        min_secondary_cores=draw(st.integers(min_value=0, max_value=8)),
    )
    return cls(**kwargs)


@st.composite
def utilization_specs(draw):
    target = draw(st.floats(min_value=0.2, max_value=0.8))
    deadband = draw(st.floats(min_value=0.0, max_value=min(target, 1.0 - target) - 0.01))
    return UtilizationTargetSpec(
        target_utilization=target,
        deadband=max(0.0, deadband),
        step_cores=draw(st.integers(min_value=1, max_value=8)),
        min_secondary_cores=draw(st.integers(min_value=0, max_value=8)),
        reserve_cores=draw(st.integers(min_value=0, max_value=8)),
    )


def assert_within_envelope(policy, decision, total):
    """Core-count decisions stay inside [floor, max_secondary]."""
    if decision is None:
        return
    assert decision.core_count is not None
    floor = policy._spec.min_secondary_cores
    assert floor <= decision.core_count <= policy.max_secondary(total)


class TestDecisionBounds:
    @given(spec=pid_specs(), obs=observations(with_latency=True))
    @settings(max_examples=300, deadline=None)
    def test_pid_decisions_bounded(self, spec, obs):
        policy = PidPolicy(spec, SLO_P99)
        assert policy.initial_decision(obs.total_cores).core_count == policy.max_secondary(
            obs.total_cores
        )
        assert_within_envelope(policy, policy.decide(obs), obs.total_cores)

    @given(spec=capacity_specs(MpcControlSpec), obs=observations(with_forecast=True))
    @settings(max_examples=300, deadline=None)
    def test_mpc_decisions_bounded(self, spec, obs):
        policy = ModelPredictivePolicy(spec)
        assert_within_envelope(policy, policy.decide(obs), obs.total_cores)

    @given(spec=capacity_specs(OracleControlSpec), obs=observations(with_forecast=True))
    @settings(max_examples=300, deadline=None)
    def test_oracle_decisions_bounded(self, spec, obs):
        policy = OraclePolicy(spec)
        assert_within_envelope(policy, policy.decide(obs), obs.total_cores)

    @given(spec=utilization_specs(), obs=observations())
    @settings(max_examples=300, deadline=None)
    def test_utilization_decisions_bounded(self, spec, obs):
        policy = UtilizationTargetPolicy(spec)
        assert_within_envelope(policy, policy.decide(obs), obs.total_cores)

    @given(obs=observations(with_latency=True, with_forecast=True))
    @settings(max_examples=200, deadline=None)
    def test_missing_telemetry_holds_the_allocation(self, obs):
        """No latency sample / no forecast -> no change, never a crash."""
        blind_obs = ControllerObservation(
            now=obs.now,
            total_cores=obs.total_cores,
            idle_cores=obs.idle_cores,
            current_core_count=obs.current_core_count,
            poll_interval=obs.poll_interval,
        )
        assert PidPolicy(PidControlSpec(), SLO_P99).decide(blind_obs) is None
        assert ModelPredictivePolicy(MpcControlSpec()).decide(blind_obs) is None
        assert OraclePolicy(OracleControlSpec()).decide(blind_obs) is None


class TestDeterminism:
    @given(
        spec=pid_specs(),
        stream=st.lists(observations(with_latency=True), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_pid_deterministic_over_observation_streams(self, spec, stream):
        """PID is stateful, but the state is a pure function of the stream."""
        a, b = PidPolicy(spec, SLO_P99), PidPolicy(spec, SLO_P99)
        assert [a.decide(obs) for obs in stream] == [b.decide(obs) for obs in stream]

    @given(
        spec=utilization_specs(),
        stream=st.lists(observations(), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_utilization_deterministic_over_observation_streams(self, spec, stream):
        a, b = UtilizationTargetPolicy(spec), UtilizationTargetPolicy(spec)
        assert [a.decide(obs) for obs in stream] == [b.decide(obs) for obs in stream]

    @given(
        spec=capacity_specs(MpcControlSpec),
        obs=observations(with_forecast=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_capacity_controllers_are_stateless(self, spec, obs):
        """The same observation always yields the same MPC decision."""
        policy = ModelPredictivePolicy(spec)
        assert policy.decide(obs) == policy.decide(obs)


class TestUtilizationDeadband:
    @given(spec=utilization_specs(), obs=observations())
    @settings(max_examples=300, deadline=None)
    def test_no_churn_inside_the_deadband(self, spec, obs):
        policy = UtilizationTargetPolicy(spec)
        low = spec.target_utilization - spec.deadband
        high = spec.target_utilization + spec.deadband
        if low <= obs.utilization <= high:
            assert policy.decide(obs) is None
