"""End-to-end fleet chaos: machine churn + controller crash + flaky pushes.

The acceptance story of the fault-injection PR, pinned as tests: a fleet
rollout with injected machine crashes and a coordinator crash mid-stage
completes *deterministically* — the crashed stage fails safe (its guardrail
digest is gone), retries after the capped backoff, re-measures and advances;
a genuinely breaching rollout under the same churn still halts and restores
the exact pre-rollout configuration through the ConfigStore.
"""

import dataclasses

import pytest

from repro.config.schema import (
    ConfigPushFaultSpec,
    ControllerCrashSpec,
    FaultPlanSpec,
    MachineFaultSpec,
    PerfIsoSpec,
)
from repro.config.validation import validate_fleet
from repro.errors import ConfigError
from repro.fleet.scenarios import fleet_chaos_rollout
from repro.fleet.simulate import FleetSimulation
from repro.reporting.rows import rows_to_json
from repro.runtime import ExperimentRunner, ResultCache

from fleet_testing import make_tiny_fleet_spec

#: The scenario's fault plan, reused by the variants below.
CHAOS_FAULTS = FaultPlanSpec(
    machines=MachineFaultSpec(crash_rate_per_hour=40.0, mean_downtime=60.0),
    controller_crash=ControllerCrashSpec(at=150.0, recovery_delay=5.0),
    config_push=ConfigPushFaultSpec(failure_rate=0.5, max_failures=2),
)


@pytest.fixture(scope="module")
def chaos_run(fleet_runner):
    spec = fleet_chaos_rollout()
    simulation = FleetSimulation(spec, runner=fleet_runner)
    result = simulation.run()
    return spec, simulation, result


class TestChaosRolloutRecovers:
    def test_rollout_completes_despite_the_faults(self, chaos_run):
        _, _, result = chaos_run
        assert result.status == "completed"
        assert result.stages_completed == result.stages_total == 3
        # The target configuration survived: every file on version 2.
        assert all(v == 2 for v in result.active_config_versions.values())

    def test_crashed_stage_fails_safe_then_retries(self, chaos_run):
        _, simulation, result = chaos_run
        history = [(d.stage, d.action, d.attempt) for d in simulation.rollout.history]
        assert history == [
            ("stage-1", "retry", 1),
            ("stage-1", "advance", 2),
            ("stage-2", "advance", 1),
            ("stage-3", "advance", 1),
        ]
        retry_row = result.stages[1]
        assert retry_row.decision == "retry"
        # The lost digest renders as NaN internally and null in JSON.
        assert retry_row.p99_ratio != retry_row.p99_ratio
        assert retry_row.row()["p99_ratio"] is None

    def test_transient_push_failures_absorbed(self, chaos_run):
        _, simulation, _ = chaos_run
        assert simulation.rollout.push_failures == 2

    def test_machine_churn_reached_the_measurements(self, chaos_run):
        _, simulation, _ = chaos_run
        assert simulation.fault_timeline is not None


class TestChaosDeterminism:
    def test_byte_identical_at_any_worker_count(self):
        spec = fleet_chaos_rollout()
        serial = FleetSimulation(
            spec, runner=ExperimentRunner(max_workers=1, cache=ResultCache())
        ).run()
        parallel = FleetSimulation(
            spec, runner=ExperimentRunner(max_workers=4, cache=ResultCache())
        ).run()
        assert rows_to_json(serial.rows()) == rows_to_json(parallel.rows())

    def test_fault_seed_changes_the_outcome_numbers(self, fleet_runner):
        base = FleetSimulation(fleet_chaos_rollout(), runner=fleet_runner).run()
        other = FleetSimulation(fleet_chaos_rollout(seed=99), runner=fleet_runner).run()
        assert rows_to_json(base.rows()) != rows_to_json(other.rows())


class TestBreachUnderChurn:
    def test_breaching_rollout_still_halts_and_rolls_back(self, fleet_runner):
        """Churn must never mask a genuine regression: an unprotected
        ('none' CPU policy) rollout under the same fault plan halts at the
        canary and restores the exact pre-rollout versions."""
        spec = make_tiny_fleet_spec(
            machines=48, stages=3, target_policy="none", faults=CHAOS_FAULTS
        )
        bullies = tuple(
            dataclasses.replace(group, secondary="cpu_bully", secondary_threads=48)
            for group in spec.groups
        )
        spec = spec.replace(groups=bullies)
        simulation = FleetSimulation(spec, runner=fleet_runner)
        result = simulation.run()
        assert result.status == "halted"
        assert result.stages_completed == 0
        store = simulation.config_store
        for name in result.active_config_versions:
            assert result.active_config_versions[name] == 1
            # The restored spec is the exact baseline object, not a re-push.
            assert store.fetch(name) == PerfIsoSpec(enabled=False)


class TestChaosValidation:
    def test_scenario_spec_validates(self):
        validate_fleet(fleet_chaos_rollout())

    def test_crash_past_the_horizon_rejected(self):
        faults = FaultPlanSpec(controller_crash=ControllerCrashSpec(at=1e9))
        spec = make_tiny_fleet_spec(faults=faults)
        with pytest.raises(ConfigError, match="never fire"):
            validate_fleet(spec)
