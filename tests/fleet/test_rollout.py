"""Unit tests for the staged rollout engine (no simulation involved)."""

import pytest

from repro.cluster.autopilot import ConfigStore
from repro.config.schema import CpuCycleSpec, PerfIsoSpec, RolloutSpec, StaticCoreSpec
from repro.errors import ClusterError
from repro.fleet.rollout import GuardrailMonitor, StagedRollout

BASELINE = PerfIsoSpec(enabled=False)
TARGET = PerfIsoSpec()


def make_rollout(store=None, **rollout_kwargs):
    store = store if store is not None else ConfigStore()
    rollout = RolloutSpec(**rollout_kwargs)
    return StagedRollout(
        store,
        rollout,
        {"perfiso-a.json": (BASELINE, TARGET), "perfiso-b.json": (BASELINE, TARGET)},
    )


class TestGuardrailMonitor:
    def test_ratio_and_breach(self):
        monitor = GuardrailMonitor(1.5)
        assert monitor.ratio(3.0, 2.0) == pytest.approx(1.5)
        assert not monitor.breached(3.0, 2.0)
        assert monitor.breached(3.1, 2.0)

    def test_zero_reference_is_only_breached_by_nonzero_measurement(self):
        monitor = GuardrailMonitor(1.5)
        assert monitor.ratio(0.0, 0.0) == 0.0
        assert monitor.breached(1.0, 0.0)

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ClusterError):
            GuardrailMonitor(0.9)

    def test_zero_reference_ratio_is_infinite_and_breaches(self):
        monitor = GuardrailMonitor(1.5)
        assert monitor.ratio(1.0, 0.0) == float("inf")
        assert monitor.breached_ratio(float("inf"))

    def test_nan_ratio_fails_safe(self):
        """A guardrail that cannot read its own telemetry must halt —
        a bare ``ratio > multiplier`` comparison waves ``nan`` through."""
        monitor = GuardrailMonitor(1.5)
        assert monitor.breached_ratio(float("nan"))


class TestStagedRollout:
    def test_begin_publishes_baseline_then_target(self):
        engine = make_rollout()
        engine.begin()
        assert engine.status == "in_progress"
        for name in ("perfiso-a.json", "perfiso-b.json"):
            assert engine.baseline_version(name) == 1
            assert engine.store.active_version(name) == 2
            assert engine.store.fetch(name) == TARGET

    def test_begin_twice_rejected(self):
        engine = make_rollout()
        engine.begin()
        with pytest.raises(ClusterError, match="already"):
            engine.begin()

    def test_clean_rollout_completes_with_target_active(self):
        engine = make_rollout()
        engine.begin()
        for index, fraction in enumerate(engine.stage_fractions):
            decision = engine.record_stage(f"stage-{index}", fraction, p99_ratio=1.1)
            assert decision.action == "advance"
        engine.finish()
        assert engine.status == "completed"
        for name in ("perfiso-a.json", "perfiso-b.json"):
            assert engine.store.fetch(name) == TARGET

    def test_breach_halts_and_restores_exact_baseline_version(self):
        store = ConfigStore()
        # Unrelated history before the rollout: the baseline version the
        # rollout must restore is NOT simply "the previous version".
        store.publish("perfiso-a.json", PerfIsoSpec(cpu=CpuCycleSpec()))
        engine = make_rollout(store=store)
        engine.begin()
        # More noise after begin(): a hotfix push to one file.
        store.publish("perfiso-a.json", PerfIsoSpec(cpu=StaticCoreSpec()))
        decision = engine.record_stage("stage-1", 0.02, p99_ratio=9.0)
        assert decision.breached and decision.action == "halt"
        assert engine.status == "halted"
        # Both files are back at the exact version begin() captured.
        assert store.fetch("perfiso-a.json") == BASELINE
        assert store.fetch("perfiso-b.json") == BASELINE
        assert store.active_version("perfiso-a.json") == engine.baseline_version("perfiso-a.json")

    def test_no_stage_recording_after_halt(self):
        engine = make_rollout()
        engine.begin()
        engine.record_stage("stage-1", 0.02, p99_ratio=9.0)
        with pytest.raises(ClusterError, match="halted"):
            engine.record_stage("stage-2", 0.25, p99_ratio=1.0)

    def test_finish_does_not_resurrect_a_halted_rollout(self):
        engine = make_rollout()
        engine.begin()
        engine.record_stage("stage-1", 0.02, p99_ratio=9.0)
        engine.finish()
        assert engine.status == "halted"

    def test_empty_entries_rejected(self):
        with pytest.raises(ClusterError, match="at least one"):
            StagedRollout(ConfigStore(), RolloutSpec(), {})

    def test_nan_ratio_halts_the_rollout(self):
        """Regression: ``record_stage`` re-implemented the guardrail as a
        bare ``>`` comparison, so a NaN ratio silently advanced the stage
        instead of routing through the monitor's fail-safe verdict.  With
        retries disabled (``stage_attempts=1``) a NaN must halt outright."""
        engine = make_rollout(stage_attempts=1)
        engine.begin()
        decision = engine.record_stage("stage-1", 0.02, p99_ratio=float("nan"))
        assert decision.breached and decision.action == "halt"
        assert engine.status == "halted"

    def test_history_records_decisions(self):
        engine = make_rollout()
        engine.begin()
        engine.record_stage("stage-1", 0.02, p99_ratio=1.2)
        engine.record_stage("stage-2", 1.0, p99_ratio=1.4)
        assert [d.stage for d in engine.history] == ["stage-1", "stage-2"]
        assert all(not d.breached for d in engine.history)


class TestChurnAwareRollout:
    """Stage retries, push retries and rollback survival under churn."""

    def test_nan_ratio_retries_while_attempts_remain(self):
        """Failing-before regression: a transient digest loss (controller
        crash mid-stage) used to halt and roll back the whole rollout; it
        must now retry the stage and only halt once attempts are spent."""
        engine = make_rollout(stage_attempts=3)
        engine.begin()
        first = engine.record_stage("stage-1", 0.02, p99_ratio=float("nan"))
        assert first.action == "retry" and not first.breached and first.attempt == 1
        assert engine.status == "in_progress"
        second = engine.record_stage("stage-1", 0.02, p99_ratio=float("nan"))
        assert second.action == "retry" and second.attempt == 2
        third = engine.record_stage("stage-1", 0.02, p99_ratio=float("nan"))
        assert third.action == "halt" and third.breached and third.attempt == 3
        assert engine.status == "halted"

    def test_retry_then_success_advances(self):
        engine = make_rollout(stage_attempts=3)
        engine.begin()
        assert engine.record_stage("s", 0.02, p99_ratio=float("nan")).action == "retry"
        decision = engine.record_stage("s", 0.02, p99_ratio=1.1)
        assert decision.action == "advance" and decision.attempt == 2

    def test_genuine_breach_never_retries(self):
        engine = make_rollout(stage_attempts=3)
        engine.begin()
        decision = engine.record_stage("s", 0.02, p99_ratio=9.0)
        assert decision.action == "halt" and decision.attempt == 1
        assert engine.status == "halted"

    def test_backoff_doubles_and_caps(self):
        engine = make_rollout(
            stage_attempts=6, retry_backoff_buckets=1, retry_backoff_cap_buckets=4
        )
        engine.begin()
        observed = []
        for _ in range(4):
            engine.record_stage("s", 0.02, p99_ratio=float("nan"))
            observed.append(engine.backoff_buckets("s"))
        assert observed == [1, 2, 4, 4]

    def test_zero_base_backoff_retries_immediately(self):
        engine = make_rollout(retry_backoff_buckets=0)
        engine.begin()
        engine.record_stage("s", 0.02, p99_ratio=float("nan"))
        assert engine.backoff_buckets("s") == 0

    def test_transient_push_failures_are_retried(self):
        """Failing-before regression: a single flaky publish used to
        propagate out of ``begin()``; it is now absorbed and counted."""
        from repro.config.schema import ConfigPushFaultSpec
        from repro.faults import FaultyConfigStore

        store = FaultyConfigStore(
            ConfigStore(),
            ConfigPushFaultSpec(failure_rate=1.0, max_failures=2),
            seed=3,
        )
        engine = make_rollout(store=store, push_attempts=3)
        engine.begin()
        assert engine.status == "in_progress"
        assert engine.push_failures == store.injected_failures == 2

    def test_push_failures_beyond_attempts_reraise(self):
        from repro.config.schema import ConfigPushFaultSpec
        from repro.errors import ConfigPushError
        from repro.faults import FaultyConfigStore

        store = FaultyConfigStore(
            ConfigStore(),
            ConfigPushFaultSpec(failure_rate=1.0, max_failures=100),
            seed=3,
        )
        engine = make_rollout(store=store, push_attempts=2)
        with pytest.raises(ConfigPushError):
            engine.begin()
        assert engine.push_failures == 2

    def test_rollback_survives_a_vanished_baseline_version(self, monkeypatch):
        """Failing-before regression: one missing rollback target used to
        abort mid-recovery, leaving the other files on the breached target
        config; now the error is recorded and the rest still roll back."""
        from repro.errors import UnknownVersionError

        store = ConfigStore()
        engine = make_rollout(store=store)
        engine.begin()
        original = store.rollback

        def flaky_rollback(name, version=None):
            if name == "perfiso-a.json":
                raise UnknownVersionError(name, version, range(1, 3))
            return original(name, version)

        monkeypatch.setattr(store, "rollback", flaky_rollback)
        decision = engine.record_stage("stage-1", 0.02, p99_ratio=9.0)
        assert decision.action == "halt"
        assert engine.status == "halted"
        assert [e.name for e in engine.rollback_errors] == ["perfiso-a.json"]
        # The survivor still rolled back to its exact baseline version.
        assert store.active_version("perfiso-b.json") == engine.baseline_version(
            "perfiso-b.json"
        )
