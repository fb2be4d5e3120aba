"""Engine-level fault injection through the single-machine experiment.

Each test runs a chaos scenario end to end and checks the *observable*
consequences of the injected fault: the injector's event log, the controller
restart count, and the latency/throughput shifts the fault must cause.
"""

import dataclasses

import pytest

from repro.config.schema import (
    ControllerCrashSpec,
    DegradedCoreSpec,
    FaultPlanSpec,
    MachineFaultSpec,
    TelemetryFaultSpec,
)
from repro.config.validation import validate_experiment
from repro.errors import ConfigError
from repro.experiments import scenarios as sc
from repro.experiments.single_machine import SingleMachineExperiment

#: Short but long enough that every fault window opens and closes mid-run.
SHORT = dict(qps=600.0, duration=1.0, warmup=0.2, seed=5)


def run(spec):
    return SingleMachineExperiment(spec).run()


class TestControllerCrash:
    def test_crash_recovers_from_checkpoint(self):
        result = run(sc.chaos_controller_crash(**SHORT))
        assert result.extra["controller_restarts"] == 1.0
        assert result.extra["fault_events"] == 2.0  # crashed + recovered

    def test_crash_freezes_decisions_while_down(self):
        """While the controller is down the secondary keeps its last core
        grant — the healthy run must apply strictly more updates."""
        healthy = run(sc.blind_isolation(**SHORT))
        crashed = run(sc.chaos_controller_crash(recovery_delay=0.3, **SHORT))
        assert crashed.controller_polls < healthy.controller_polls

    def test_deterministic_per_seed(self):
        first = run(sc.chaos_controller_crash(**SHORT)).summary()
        second = run(sc.chaos_controller_crash(**SHORT)).summary()
        assert first == second


class TestDegradedCores:
    def test_slowdown_hurts_the_tail(self):
        healthy = run(sc.blind_isolation(**SHORT))
        degraded = run(sc.chaos_degraded_cores(slowdown=3.0, **SHORT))
        assert degraded.extra["fault_events"] == 2.0  # degraded + recovered
        p99 = lambda r: r.latency.as_millis()["p99_ms"]
        assert p99(degraded) > p99(healthy)

    def test_window_boundaries_recorded_in_order(self):
        spec = sc.chaos_degraded_cores(**SHORT)
        experiment = SingleMachineExperiment(spec)
        experiment.run()
        events = experiment.assembly.fault_injector.events
        assert [text for _, text in events] == [
            "cores degraded: 1.5x slowdown",
            "cores recovered: full speed",
        ]
        window = spec.faults.degraded
        assert events[0][0] == pytest.approx(window.start)
        assert events[1][0] == pytest.approx(window.end)


class TestTelemetryDropout:
    @pytest.mark.parametrize("mode", ["missing", "frozen"])
    def test_dropout_changes_controller_behaviour(self, mode):
        healthy = run(
            dataclasses.replace(
                sc.chaos_telemetry_dropout(mode=mode, **SHORT), faults=None
            )
        )
        degraded = run(sc.chaos_telemetry_dropout(mode=mode, **SHORT))
        assert degraded.extra["fault_events"] == 2.0
        # The PID controller reacts to P99 readings; blinding it mid-run must
        # change the decision trajectory (but never crash the run).
        assert degraded.controller_updates != healthy.controller_updates

    def test_modes_diverge_from_each_other(self):
        missing = run(sc.chaos_telemetry_dropout(mode="missing", **SHORT)).summary()
        frozen = run(sc.chaos_telemetry_dropout(mode="frozen", **SHORT)).summary()
        assert missing != frozen


class TestValidation:
    def test_machine_faults_rejected_on_experiments(self):
        spec = dataclasses.replace(
            sc.base_spec(),
            faults=FaultPlanSpec(machines=MachineFaultSpec(crash_rate_per_hour=1.0)),
        )
        with pytest.raises(ConfigError, match="fleet"):
            validate_experiment(spec)

    def test_controller_crash_requires_a_controller(self):
        spec = dataclasses.replace(
            sc.base_spec(),
            faults=FaultPlanSpec(controller_crash=ControllerCrashSpec(at=0.5)),
        )
        with pytest.raises(ConfigError, match="controller"):
            validate_experiment(spec)

    def test_fault_window_past_the_run_rejected(self):
        spec = dataclasses.replace(
            sc.blind_isolation(**SHORT),
            faults=FaultPlanSpec(
                degraded=DegradedCoreSpec(slowdown=2.0, start=99.0, duration=1.0)
            ),
        )
        with pytest.raises(ConfigError, match="never fire"):
            validate_experiment(spec)

    def test_registered_chaos_scenarios_validate(self):
        for build in (
            sc.chaos_controller_crash,
            lambda **kw: sc.chaos_telemetry_dropout(mode="frozen", **kw),
            sc.chaos_degraded_cores,
        ):
            validate_experiment(build(**SHORT))

    def test_telemetry_fault_mode_checked(self):
        with pytest.raises(ConfigError):
            TelemetryFaultSpec(mode="sideways", start=0.1, duration=0.1)
