"""Deterministic fault schedules, drawn from the named ``"faults"`` stream.

Every draw here is seeded by :func:`repro.simulation.randomness.stable_seed`
of ``("faults", purpose, seed, ...identity parts)``, with the stream name as
the leading part so fault draws can never collide with any other subsystem's
seeds.  A machine's crash schedule therefore depends only on the spec's seed
and the machine's identity (group name + index), never on worker count,
shard partition, or which other faults are enabled.

This module is a deliberate leaf: it imports only the config schema, the
dependency-free seed helper and numpy, so both the simulation tier
(:mod:`repro.faults.injector`) and the fleet tier (:mod:`repro.faults.fleet`)
can share it without import cycles.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..config.schema import DegradedCoreSpec, MachineFaultSpec
from ..simulation.randomness import stable_seed

__all__ = [
    "FAULTS_STREAM",
    "fault_seed",
    "fault_rng",
    "machine_crash_episodes",
    "machine_is_degraded",
]

#: The reserved stream name.  All fault randomness hangs off this prefix.
FAULTS_STREAM = "faults"


def fault_seed(*parts: object) -> int:
    """A process-independent integer seed for one fault draw.

    :func:`~repro.simulation.randomness.stable_seed` with
    :data:`FAULTS_STREAM` prepended, so a fault schedule is a pure function
    of the identifying parts and disjoint from every other stream in the
    library.
    """
    return stable_seed(FAULTS_STREAM, *parts)


def fault_rng(*parts: object) -> np.random.Generator:
    """A fresh generator seeded by :func:`fault_seed` of ``parts``."""
    return np.random.default_rng(fault_seed(*parts))


def machine_crash_episodes(
    spec: MachineFaultSpec,
    *,
    seed: int,
    group: str,
    machine_index: int,
    horizon: float,
) -> Tuple[Tuple[float, float], ...]:
    """One machine's crash/restart episodes as ``((down_at, up_at), ...)``.

    Crashes arrive as a Poisson process at ``crash_rate_per_hour`` while the
    machine is up; each outage lasts an exponential downtime with mean
    ``mean_downtime`` seconds.  Episodes are drawn sequentially from the
    machine's own stream, so truncating at a longer ``horizon`` only ever
    *appends* episodes — the schedule up to any time t is identical for
    every horizon >= t.  At most ``max_crashes`` episodes are drawn.

    Episodes are half-open intervals and may extend past ``horizon``; callers
    clamp as needed.  An empty tuple means the machine never crashes.
    """
    if horizon <= 0.0:
        return ()
    rng = fault_rng("machine-crash", seed, group, machine_index)
    mean_gap = 3600.0 / spec.crash_rate_per_hour
    episodes = []
    clock = 0.0
    for _ in range(spec.max_crashes):
        clock += float(rng.exponential(mean_gap))
        if clock >= horizon:
            break
        downtime = float(rng.exponential(spec.mean_downtime))
        episodes.append((clock, clock + downtime))
        clock += downtime
    return tuple(episodes)


def machine_is_degraded(
    spec: DegradedCoreSpec, *, seed: int, group: str, machine_index: int
) -> bool:
    """Whether one machine straggles during the degraded-core window.

    An independent Bernoulli(``fraction_of_machines``) draw per machine from
    its own fault stream: deterministic per spec, independent of sharding.
    """
    rng = fault_rng("degraded-core", seed, group, machine_index)
    return bool(rng.random() < spec.fraction_of_machines)
