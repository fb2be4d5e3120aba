"""Fleet-level fault timelines and the fault-injecting configuration store.

The fleet tier is analytic, so machine faults are folded into the shard math
rather than simulated: a :class:`FleetFaultTimeline` draws every machine's
crash/restart episodes and straggler membership *once* per run (keyed by the
spec seed and the machine's global identity, so the timeline is byte-identical
at any worker count or shard partition), and :meth:`FleetFaultTimeline.shard_plan`
slices it into the small, picklable :class:`ShardFaultPlan` each shard task
carries.  Sampled (hyperscale) mode needs no extra randomness: unsampled
machines' closed-form histogram contributions are corrected with the *exact*
per-bucket count of up/degraded unsampled machines from the same timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..config.schema import ConfigPushFaultSpec, FaultPlanSpec, FleetSpec
from ..errors import ConfigPushError
from .schedule import fault_rng, machine_crash_episodes, machine_is_degraded

__all__ = [
    "FaultyConfigStore",
    "FleetFaultTimeline",
    "ShardFaultPlan",
    "fleet_fault_horizon",
]


def fleet_fault_horizon(spec: FleetSpec) -> float:
    """A spec-only upper bound on the simulated time a fleet run can reach.

    Stage retries extend a faulty run past the nominal bucket count, so crash
    schedules are drawn out to the worst case the rollout spec allows — every
    stage burning all its attempts at the capped backoff.  Deriving the
    horizon from the spec alone (never from guardrail outcomes) keeps the
    timeline a pure function of the configuration.
    """
    rollout = spec.rollout
    per_stage = rollout.stage_attempts * (
        rollout.stage_buckets + rollout.retry_backoff_cap_buckets
    )
    buckets = rollout.bake_buckets + len(rollout.stage_fractions) * per_stage
    return buckets * spec.bucket_seconds


@dataclass(frozen=True)
class ShardFaultPlan:
    """One shard task's fault timeline over its bucket window (picklable).

    All machine references are shard-relative positions; a machine counts as
    down for a bucket when a crash episode covers the bucket's midpoint.
    """

    #: Per bucket offset: positions down during that bucket.
    down: Tuple[Tuple[int, ...], ...]
    #: Positions that straggle whenever the degraded window is active.
    degraded: Tuple[int, ...]
    #: Latency multiplier for degraded machines in degraded buckets.
    slowdown: float
    #: Bucket offsets covered by the degraded window.
    degraded_buckets: Tuple[int, ...]

    @property
    def is_noop(self) -> bool:
        return not any(self.down) and not (self.degraded and self.degraded_buckets)


class FleetFaultTimeline:
    """Absolute-time machine fault timelines for one fleet run.

    Built once per run from the fault plan; every per-machine draw is keyed
    by ``(seed, group name, global machine index)``, so the same spec yields
    the same timeline in every process regardless of sharding.
    """

    def __init__(self, plan: FaultPlanSpec, spec: FleetSpec) -> None:
        self._plan = plan
        self.horizon = fleet_fault_horizon(spec)
        self._episodes: Dict[Tuple[str, int], Tuple[Tuple[float, float], ...]] = {}
        self._degraded: Dict[str, FrozenSet[int]] = {}
        machines = plan.machines
        degraded = plan.degraded
        for group in spec.groups:
            if machines is not None and machines.enabled:
                for index in range(group.machines):
                    episodes = machine_crash_episodes(
                        machines,
                        seed=spec.seed,
                        group=group.name,
                        machine_index=index,
                        horizon=self.horizon,
                    )
                    if episodes:
                        self._episodes[(group.name, index)] = episodes
            if degraded is not None and degraded.enabled:
                self._degraded[group.name] = frozenset(
                    index
                    for index in range(group.machines)
                    if machine_is_degraded(
                        degraded, seed=spec.seed, group=group.name, machine_index=index
                    )
                )

    # -------------------------------------------------------------- queries
    @property
    def plan(self) -> FaultPlanSpec:
        return self._plan

    def down_at(self, group: str, machine_index: int, time: float) -> bool:
        episodes = self._episodes.get((group, machine_index))
        if not episodes:
            return False
        return any(start <= time < end for start, end in episodes)

    def shard_plan(
        self,
        *,
        group: str,
        start: int,
        stop: int,
        start_time: float,
        bucket_seconds: float,
        buckets: int,
    ) -> Optional[ShardFaultPlan]:
        """The fault plan for machines ``[start, stop)`` of ``group`` across
        ``buckets`` buckets beginning at absolute time ``start_time``, or
        ``None`` when nothing in the window affects this shard."""
        count = stop - start
        down = []
        for bucket in range(buckets):
            midpoint = start_time + (bucket + 0.5) * bucket_seconds
            down.append(
                tuple(
                    local
                    for local in range(count)
                    if self.down_at(group, start + local, midpoint)
                )
            )
        degraded_spec = self._plan.degraded
        degraded_positions: Tuple[int, ...] = ()
        degraded_buckets: Tuple[int, ...] = ()
        if degraded_spec is not None and degraded_spec.enabled:
            degraded_buckets = tuple(
                bucket
                for bucket in range(buckets)
                if degraded_spec.start
                <= start_time + (bucket + 0.5) * bucket_seconds
                < degraded_spec.end
            )
            if degraded_buckets:
                members = self._degraded.get(group, frozenset())
                degraded_positions = tuple(
                    local for local in range(count) if start + local in members
                )
        plan = ShardFaultPlan(
            down=tuple(down),
            degraded=degraded_positions,
            slowdown=degraded_spec.slowdown if degraded_spec is not None else 1.0,
            degraded_buckets=degraded_buckets,
        )
        return None if plan.is_noop else plan


class FaultyConfigStore:
    """A ConfigStore wrapper whose pushes fail transiently and deterministically.

    Each ``publish``/``rollback`` attempt independently fails with the spec's
    ``failure_rate`` (drawn from the faults stream keyed by the attempt
    ordinal), raising :class:`~repro.errors.ConfigPushError` instead of
    reaching the store, up to ``max_failures`` injected failures in total.
    Everything else delegates to the wrapped store, which remains the source
    of truth for versions and history.
    """

    def __init__(self, store, spec: ConfigPushFaultSpec, *, seed: int) -> None:
        self._store = store
        self._spec = spec
        self._seed = seed
        self._attempts = 0
        self.injected_failures = 0

    @property
    def store(self):
        return self._store

    def publish(self, name: str, spec: object) -> int:
        self._maybe_fail("publish", name)
        return self._store.publish(name, spec)

    def rollback(self, name: str, version: Optional[int] = None) -> int:
        self._maybe_fail("rollback", name)
        return self._store.rollback(name, version)

    def _maybe_fail(self, operation: str, name: str) -> None:
        self._attempts += 1
        if self.injected_failures >= self._spec.max_failures:
            return
        rng = fault_rng("config-push", self._seed, self._attempts)
        if rng.random() < self._spec.failure_rate:
            self.injected_failures += 1
            raise ConfigPushError(
                f"injected transient failure on {operation} of {name!r} "
                f"(attempt {self._attempts})"
            )

    def __getattr__(self, attr: str):
        return getattr(self._store, attr)
