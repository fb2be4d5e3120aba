"""Tests for the CPU isolation policies."""

import pytest

from repro.config.schema import (
    CPU_POLICIES,
    BlindIsolationSpec,
    CpuBullySpec,
    CpuCycleSpec,
    PerfIsoSpec,
    StaticCoreSpec,
)
from repro.core.policies import (
    AllocationDecision,
    BlindIsolationPolicy,
    ControllerObservation,
    CpuCyclesPolicy,
    ModelPredictivePolicy,
    NoIsolationPolicy,
    OraclePolicy,
    PidPolicy,
    StaticCoresPolicy,
    UtilizationTargetPolicy,
    policy_class,
    policy_from_spec,
)
from repro.errors import IsolationError


def observe(total_cores, idle_cores, current_core_count):
    """One poll's observation carrying only the idle-core signal."""
    return ControllerObservation(
        now=0.0,
        total_cores=total_cores,
        idle_cores=idle_cores,
        current_core_count=current_core_count,
        poll_interval=0.0,
    )


class TestAllocationDecision:
    def test_exactly_one_knob_required(self):
        AllocationDecision(core_count=4)
        AllocationDecision(cpu_rate=0.5)
        AllocationDecision(unrestricted=True)
        with pytest.raises(IsolationError):
            AllocationDecision()
        with pytest.raises(IsolationError):
            AllocationDecision(core_count=4, cpu_rate=0.5)

    def test_value_validation(self):
        with pytest.raises(IsolationError):
            AllocationDecision(core_count=-1)
        with pytest.raises(IsolationError):
            AllocationDecision(cpu_rate=0.0)


class TestBlindIsolationPolicy:
    def test_initial_allocation_leaves_buffer(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.initial_decision(48)
        assert decision.core_count == 40

    def test_buffer_must_fit_machine(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        with pytest.raises(IsolationError):
            policy.initial_decision(8)

    def test_shrinks_when_idle_below_buffer(self):
        """The paper's rule: if I < B, S is decreased."""
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.decide(observe(total_cores=48, idle_cores=3, current_core_count=30))
        assert decision.core_count == 25

    def test_grows_when_idle_above_buffer(self):
        """The paper's rule: if I > B, S is increased."""
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.decide(observe(total_cores=48, idle_cores=14, current_core_count=20))
        assert decision.core_count == 26

    def test_no_change_at_exact_buffer(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        assert policy.decide(observe(48, 8, 30)) is None

    def test_never_exceeds_total_minus_buffer(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.decide(observe(48, 30, 38))
        assert decision is None or decision.core_count <= 40
        assert policy.decide(observe(48, 48, 40)) is None

    def test_never_goes_below_min_secondary(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8, min_secondary_cores=2))
        decision = policy.decide(observe(48, 0, 4))
        assert decision.core_count == 2
        assert policy.decide(observe(48, 0, 2)) is None

    def test_max_step_limits_adjustment(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8, max_step=2))
        decision = policy.decide(observe(48, 0, 30))
        assert decision.core_count == 28

    def test_none_current_uses_initial_allocation(self):
        policy = BlindIsolationPolicy(BlindIsolationSpec(buffer_cores=8))
        decision = policy.decide(observe(48, 2, None))
        assert decision.core_count == 34


class TestStaticAndCyclePolicies:
    def test_static_cores_fixed_allocation(self):
        policy = StaticCoresPolicy(StaticCoreSpec(secondary_cores=16))
        assert policy.initial_decision(48).core_count == 16
        assert policy.decide(observe(48, 0, 16)) is None

    def test_static_cores_clamped_to_machine(self):
        policy = StaticCoresPolicy(StaticCoreSpec(secondary_cores=64))
        assert policy.initial_decision(48).core_count == 48

    def test_cpu_cycles_sets_rate(self):
        policy = CpuCyclesPolicy(CpuCycleSpec(cpu_fraction=0.05))
        decision = policy.initial_decision(48)
        assert decision.cpu_rate == pytest.approx(0.05)
        assert policy.decide(observe(48, 0, None)) is None

    def test_no_isolation_unrestricted(self):
        policy = NoIsolationPolicy()
        assert policy.initial_decision(48).unrestricted
        assert policy.decide(observe(48, 0, None)) is None


#: The policy class each CPU policy name builds, in ``CPU_POLICIES`` order.
EXPECTED_POLICIES = {
    "blind": BlindIsolationPolicy,
    "static_cores": StaticCoresPolicy,
    "cpu_cycles": CpuCyclesPolicy,
    "none": NoIsolationPolicy,
    "pid": PidPolicy,
    "mpc": ModelPredictivePolicy,
    "utilization": UtilizationTargetPolicy,
    "oracle": OraclePolicy,
}


class TestBuildPolicy:
    def test_every_policy_name_is_covered(self):
        assert list(EXPECTED_POLICIES) == list(CPU_POLICIES)

    @pytest.mark.parametrize("name,expected", list(EXPECTED_POLICIES.items()))
    def test_known_policies(self, name, expected):
        """The policy built from each name's spec is that policy, and reports
        that name."""
        spec_class = CPU_POLICIES[name]
        cpu = spec_class() if spec_class is not None else None
        policy = policy_from_spec(PerfIsoSpec(cpu=cpu))
        assert type(policy) is expected
        assert policy.name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(IsolationError):
            policy_class(CpuBullySpec())
