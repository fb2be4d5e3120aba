"""Staged rollout engine: canary -> wave -> fleet with SLO guardrails.

PerfIso reached tens of thousands of machines the way every config change
does in production: a small canary first, progressively wider waves, and an
automatic halt-and-rollback whenever the tail-latency guardrail trips.  The
engine below drives the versioned :class:`~repro.cluster.autopilot.ConfigStore`
— it publishes the baseline and target PerfIso specs as explicit versions
(each version is the frozen spec object that was published), records a
decision per stage, and on a guardrail breach restores the exact baseline
version for every file it touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..cluster.autopilot import ConfigStore
from ..config.schema import RolloutSpec
from ..errors import ClusterError, ConfigPushError, UnknownVersionError

__all__ = ["GuardrailMonitor", "StageDecision", "StagedRollout"]


@dataclass(frozen=True)
class StageDecision:
    """One stage's guardrail verdict."""

    stage: str
    fraction: float
    #: Worst colocated-to-baseline P99 ratio observed across groups.
    p99_ratio: float
    breached: bool
    action: str  # "advance" | "halt" | "retry"
    #: Which attempt of this stage produced the verdict (1-based).
    attempt: int = 1


class GuardrailMonitor:
    """Compares each group's colocated P99 against its baseline reference."""

    def __init__(self, p99_multiplier: float) -> None:
        if p99_multiplier < 1.0:
            raise ClusterError("guardrail multiplier must be >= 1.0")
        self._multiplier = p99_multiplier

    @property
    def p99_multiplier(self) -> float:
        return self._multiplier

    def ratio(self, measured_p99: float, reference_p99: float) -> float:
        if reference_p99 <= 0.0:
            return 0.0 if measured_p99 <= 0.0 else float("inf")
        return measured_p99 / reference_p99

    def breached_ratio(self, p99_ratio: float) -> bool:
        """The single guardrail verdict every consumer must route through.

        A non-finite ratio fails safe: ``inf`` (measurement against a zero
        reference) breaches because the comparison exceeds any multiplier,
        and ``nan`` (a corrupted signal) breaches because a guardrail that
        cannot read its own telemetry must halt, not silently advance — a
        bare ``ratio > multiplier`` comparison would wave ``nan`` through.
        """
        if math.isnan(p99_ratio):
            return True
        return p99_ratio > self._multiplier

    def breached(self, measured_p99: float, reference_p99: float) -> bool:
        return self.breached_ratio(self.ratio(measured_p99, reference_p99))


class StagedRollout:
    """Drives one staged configuration rollout through a ConfigStore."""

    def __init__(
        self,
        store: ConfigStore,
        rollout: RolloutSpec,
        entries: Mapping[str, Tuple[object, object]],
    ) -> None:
        """``entries`` maps config file name -> (baseline_spec, target_spec)."""
        if not entries:
            raise ClusterError("a rollout needs at least one configuration file")
        self._store = store
        self._rollout = rollout
        self._entries = dict(entries)
        self._baseline_versions: Dict[str, int] = {}
        self._stage_attempts: Dict[str, int] = {}
        self.status = "pending"  # pending -> in_progress -> completed | halted
        self.history: List[StageDecision] = []
        self.monitor = GuardrailMonitor(rollout.guardrail_p99_multiplier)
        #: Transient push failures absorbed by retries (churn observability).
        self.push_failures = 0
        #: Rollback targets that no longer existed at halt time; the rollout
        #: rolls every *other* file back rather than dying mid-recovery.
        self.rollback_errors: List[UnknownVersionError] = []

    # ---------------------------------------------------------------- wiring
    @property
    def store(self) -> ConfigStore:
        return self._store

    @property
    def stage_fractions(self) -> Tuple[float, ...]:
        return self._rollout.stage_fractions

    def baseline_version(self, name: str) -> int:
        return self._baseline_versions[name]

    # ------------------------------------------------------------- lifecycle
    def begin(self) -> None:
        """Publish baseline then target versions for every managed file."""
        if self.status != "pending":
            raise ClusterError(f"rollout already {self.status}")
        for name in sorted(self._entries):
            baseline, target = self._entries[name]
            self._baseline_versions[name] = self._push(
                lambda name=name, spec=baseline: self._store.publish(name, spec)
            )
            self._push(lambda name=name, spec=target: self._store.publish(name, spec))
        self.status = "in_progress"

    def record_stage(self, stage: str, fraction: float, p99_ratio: float) -> StageDecision:
        """Apply the guardrail verdict for one completed stage attempt.

        Three verdicts are possible:

        * a finite, in-bounds ratio **advances** the stage;
        * a ``nan`` ratio (the stage digest went missing or stale — a
          controller crash, machines lost mid-measurement) fails safe: the
          stage **retries** while attempts remain, because a guardrail that
          cannot read its own telemetry must neither advance nor convict;
        * a genuine breach — or a ``nan`` with attempts exhausted — **halts**:
          every file is rolled back to the exact baseline version captured by
          :meth:`begin`, regardless of what else was published to the store
          in the meantime.  A rollback target that vanished is recorded in
          ``rollback_errors`` and the remaining files still roll back.
        """
        if self.status != "in_progress":
            raise ClusterError(f"cannot record a stage on a rollout that is {self.status}")
        attempt = self._stage_attempts.get(stage, 0) + 1
        self._stage_attempts[stage] = attempt
        if math.isnan(p99_ratio) and attempt < self._rollout.stage_attempts:
            decision = StageDecision(
                stage=stage,
                fraction=fraction,
                p99_ratio=p99_ratio,
                breached=False,
                action="retry",
                attempt=attempt,
            )
            self.history.append(decision)
            return decision
        breached = self.monitor.breached_ratio(p99_ratio)
        decision = StageDecision(
            stage=stage,
            fraction=fraction,
            p99_ratio=p99_ratio,
            breached=breached,
            action="halt" if breached else "advance",
            attempt=attempt,
        )
        self.history.append(decision)
        if breached:
            for name in sorted(self._entries):
                try:
                    self._push(
                        lambda name=name: self._store.rollback(
                            name, self._baseline_versions[name]
                        )
                    )
                except UnknownVersionError as error:
                    self.rollback_errors.append(error)
            self.status = "halted"
        return decision

    def backoff_buckets(self, stage: str) -> int:
        """Buckets to idle before the next attempt of ``stage``.

        Doubles per retry from ``retry_backoff_buckets``, capped at
        ``retry_backoff_cap_buckets``; a base of 0 retries immediately.
        """
        attempt = self._stage_attempts.get(stage, 1)
        base = self._rollout.retry_backoff_buckets
        if base <= 0:
            return 0
        return min(base * (2 ** (attempt - 1)), self._rollout.retry_backoff_cap_buckets)

    def _push(self, operation):
        """Run one store push, retrying transient :class:`ConfigPushError`\\ s.

        A push that still fails after ``push_attempts`` tries re-raises: at
        that point the store is not flaky, it is gone.
        """
        last: Optional[ConfigPushError] = None
        for _ in range(self._rollout.push_attempts):
            try:
                return operation()
            except ConfigPushError as error:
                last = error
                self.push_failures += 1
        raise last

    def finish(self) -> None:
        """Mark a rollout that survived every stage as completed."""
        if self.status == "in_progress":
            self.status = "completed"
