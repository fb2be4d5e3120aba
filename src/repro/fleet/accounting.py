"""Fleet-wide capacity-reclamation accounting.

The business case for PerfIso is an accounting statement: how many core-hours
of otherwise-idle capacity were handed to batch jobs, how much batch work got
done, and how many SLO-violation minutes the fleet paid for it.  Machine
shards report mergeable latency digests plus exact core-hour tallies; this
module folds them into per-stage and fleet-level totals, so no raw latency
sample ever crosses a shard boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..metrics.latency import LatencyDigest
from ..units import to_millis

__all__ = ["StageAccount", "FleetResult"]


@dataclass
class StageAccount:
    """Everything measured during one rollout stage (or the baseline bake)."""

    stage: str
    fraction: float
    buckets: int
    machines_enabled: int
    colocated_machines: int
    placed_jobs: int
    unplaced_jobs: int
    baseline_p99_ms: float
    colocated_p99_ms: float
    p99_ratio: float
    decision: str
    reclaimed_core_hours: float
    batch_machine_hours: float
    slo_violation_minutes: float

    def row(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "fraction": round(self.fraction, 6),
            "buckets": self.buckets,
            "machines_enabled": self.machines_enabled,
            "colocated_machines": self.colocated_machines,
            "placed_jobs": self.placed_jobs,
            "unplaced_jobs": self.unplaced_jobs,
            "baseline_p99_ms": round(self.baseline_p99_ms, 4),
            "colocated_p99_ms": round(self.colocated_p99_ms, 4),
            # A retried stage attempt has no usable ratio (NaN); JSON has no
            # NaN, so the row carries null instead.
            "p99_ratio": (
                round(self.p99_ratio, 4)
                if self.p99_ratio == self.p99_ratio
                else None
            ),
            "decision": self.decision,
            "reclaimed_core_hours": round(self.reclaimed_core_hours, 4),
            "batch_machine_hours": round(self.batch_machine_hours, 4),
            "slo_violation_minutes": round(self.slo_violation_minutes, 4),
        }


@dataclass
class FleetResult:
    """The outcome of operating one fleet through a staged rollout."""

    machines: int
    groups: int
    status: str  # "completed" | "halted"
    stages_completed: int
    stages_total: int
    placement_strategy: str
    target_policy: str
    #: Per config file: the version active after the rollout ended.
    active_config_versions: Dict[str, int] = field(default_factory=dict)
    stages: List[StageAccount] = field(default_factory=list)
    #: Fleet-wide latency digest of every colocated machine-bucket.
    colocated_digest: LatencyDigest = field(default_factory=LatencyDigest)
    #: Fleet-wide latency digest of every baseline machine-bucket.
    baseline_digest: LatencyDigest = field(default_factory=LatencyDigest)
    machine_buckets: int = 0

    # ------------------------------------------------------------------ totals
    @property
    def reclaimed_core_hours(self) -> float:
        return sum(stage.reclaimed_core_hours for stage in self.stages)

    @property
    def batch_machine_hours(self) -> float:
        return sum(stage.batch_machine_hours for stage in self.stages)

    @property
    def slo_violation_minutes(self) -> float:
        return sum(stage.slo_violation_minutes for stage in self.stages)

    def totals(self) -> Dict[str, Any]:
        baseline = self.baseline_digest.stats()
        colocated = self.colocated_digest.stats()
        return {
            "machines": self.machines,
            "groups": self.groups,
            "status": self.status,
            "stages_completed": self.stages_completed,
            "stages_total": self.stages_total,
            "machine_buckets": self.machine_buckets,
            "reclaimed_core_hours": round(self.reclaimed_core_hours, 4),
            "batch_machine_hours": round(self.batch_machine_hours, 4),
            "slo_violation_minutes": round(self.slo_violation_minutes, 4),
            "baseline_p99_ms": round(to_millis(baseline.p99), 4),
            "colocated_p99_ms": round(to_millis(colocated.p99), 4),
        }

    # --------------------------------------------------------------- reporting
    def rows(self) -> List[Dict[str, Any]]:
        """One row per stage — the CLI's table/CSV/JSON payload.

        Rows are a pure function of the fleet spec (wall-clock, worker count
        and cache state are deliberately excluded), so serial, parallel and
        repeat runs on cached calibrations emit byte-identical output.
        """
        return [stage.row() for stage in self.stages]

    def summary(self) -> Dict[str, Any]:
        """Flat single-row summary (what the scenario matrix tabulates)."""
        summary: Dict[str, Any] = {
            "placement": self.placement_strategy,
            "policy": self.target_policy,
        }
        summary.update(self.totals())
        # The rollback observable: one version number per config file, in
        # sorted file order ("1/1/1" after a halt that restored baselines).
        summary["config_versions"] = "/".join(
            str(self.active_config_versions[name])
            for name in sorted(self.active_config_versions)
        )
        return summary
