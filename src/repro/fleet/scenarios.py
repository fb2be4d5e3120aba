"""Fleet scenario builders and their catalog registrations.

Where :mod:`repro.experiments.scenarios` sweeps single-machine colocations,
these scenarios sweep *operations*: rollout staging policies, placement
strategies and fleet sizes.  Each builder returns a
:class:`~repro.config.schema.FleetSpec`; they are registered in the same
scenario matrix as the single-machine catalog under ``kind="fleet"``, so
``python -m repro.experiments.matrix --list`` shows both axes of diversity
and ``python -m repro.experiments.matrix --run NAME`` runs them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..config.schema import (
    ConfigPushFaultSpec,
    ControllerCrashSpec,
    FaultPlanSpec,
    FleetSpec,
    MachineFaultSpec,
    MachineGroupSpec,
    PlacementSpec,
    RolloutSpec,
)
from ..errors import ConfigError
from ..experiments import matrix

__all__ = [
    "stage_fractions",
    "default_groups",
    "default_fleet_spec",
    "fleet_staged_rollout",
    "fleet_placement_strategies",
    "fleet_rollout_stages",
    "fleet_guardrail_breach",
    "fleet_diurnal_skew",
    "fleet_hyperscale",
    "fleet_chaos_rollout",
]

#: Proportions of the three default row configurations (ML training rows,
#: CPU-bully analytics rows, HDFS storage rows).
DEFAULT_ROW_MIX: Tuple[Tuple[str, float], ...] = (
    ("row-ml", 0.45),
    ("row-analytics", 0.35),
    ("row-storage", 0.20),
)


def stage_fractions(stages: int, canary: float = 0.02) -> Tuple[float, ...]:
    """Geometric canary -> fleet fractions for an ``stages``-stage rollout."""
    if stages < 1:
        raise ConfigError("a rollout needs at least one stage")
    if stages == 1:
        return (1.0,)
    fractions = [
        round(canary ** ((stages - 1 - index) / (stages - 1)), 6)
        for index in range(stages - 1)
    ]
    return tuple(fractions) + (1.0,)


def default_groups(machines: int, phase_spread: float = 0.65) -> Tuple[MachineGroupSpec, ...]:
    """Three heterogeneous row configurations summing to ``machines``."""
    if machines < 3:
        raise ConfigError("the default fleet needs at least three machines")
    analytics = max(1, round(machines * DEFAULT_ROW_MIX[1][1]))
    storage = max(1, round(machines * DEFAULT_ROW_MIX[2][1]))
    ml = machines - analytics - storage
    return (
        MachineGroupSpec(
            name="row-ml",
            machines=ml,
            buffer_cores=8,
            secondary="ml_training",
            phase_offset=0.0,
        ),
        MachineGroupSpec(
            name="row-analytics",
            machines=analytics,
            buffer_cores=8,
            secondary="cpu_bully",
            secondary_threads=24,
            phase_offset=round(phase_spread * 0.5, 6),
        ),
        MachineGroupSpec(
            name="row-storage",
            machines=storage,
            buffer_cores=4,
            secondary="hdfs",
            peak_qps=3200.0,
            trough_qps=1200.0,
            phase_offset=round(phase_spread, 6),
        ),
    )


def default_fleet_spec(
    machines: int = 2000,
    stages: int = 3,
    seed: int = 7,
    target_policy: str = "blind",
    guardrail: float = 1.5,
    strategy: str = "first_fit",
    phase_spread: float = 0.65,
    calibration_qps: Optional[Tuple[float, ...]] = None,
    calibration_duration: Optional[float] = None,
    calibration_warmup: Optional[float] = None,
    bake_buckets: int = 4,
    stage_buckets: int = 4,
    samples_per_machine_bucket: int = 32,
    sample_fraction: float = 1.0,
    min_sampled_machines: int = 256,
    faults: Optional[FaultPlanSpec] = None,
) -> FleetSpec:
    """The canonical heterogeneous fleet, parameterised for CLI and scenarios."""
    overrides = {}
    if calibration_qps is not None:
        overrides["calibration_qps"] = tuple(calibration_qps)
    if calibration_duration is not None:
        overrides["calibration_duration"] = calibration_duration
    if calibration_warmup is not None:
        overrides["calibration_warmup"] = calibration_warmup
    if faults is not None:
        overrides["faults"] = faults
    return FleetSpec(
        groups=default_groups(machines, phase_spread=phase_spread),
        rollout=RolloutSpec(
            stage_fractions=stage_fractions(stages),
            target_policy=target_policy,
            guardrail_p99_multiplier=guardrail,
            bake_buckets=bake_buckets,
            stage_buckets=stage_buckets,
        ),
        placement=PlacementSpec(strategy=strategy),
        samples_per_machine_bucket=samples_per_machine_bucket,
        sample_fraction=sample_fraction,
        min_sampled_machines=min_sampled_machines,
        seed=seed,
        **overrides,
    )


# ----------------------------------------------------------------- catalog
@matrix.scenario(
    "fleet-staged-rollout",
    "Canary -> wave -> fleet PerfIso rollout over a heterogeneous fleet",
    axes={"machines": (600, 2000)},
    tags=("fleet", "production"),
    kind="fleet",
)
def fleet_staged_rollout(machines: int = 2000, stages: int = 3, seed: int = 7) -> FleetSpec:
    """The flagship fleet scenario: staged rollout with batch placement."""
    return default_fleet_spec(machines=machines, stages=stages, seed=seed)


@matrix.scenario(
    "fleet-placement-strategies",
    "First/best/worst-fit secondary placement over the same fleet",
    axes={"strategy": ("first_fit", "best_fit", "worst_fit")},
    tags=("fleet", "placement"),
    kind="fleet",
)
def fleet_placement_strategies(
    strategy: str = "first_fit", machines: int = 240, seed: int = 7
) -> FleetSpec:
    """How the bin-packing strategy shifts reclaimed capacity and the tail."""
    return default_fleet_spec(machines=machines, seed=seed, strategy=strategy)


@matrix.scenario(
    "fleet-rollout-stages",
    "Big-bang versus progressively staged rollouts of the same change",
    axes={"stages": (1, 2, 4)},
    tags=("fleet", "rollout"),
    kind="fleet",
)
def fleet_rollout_stages(stages: int = 3, machines: int = 400, seed: int = 7) -> FleetSpec:
    """One stage is a big bang; more stages trade time for blast radius."""
    return default_fleet_spec(machines=machines, stages=stages, seed=seed)


@matrix.scenario(
    "fleet-guardrail-breach",
    "An unprotected (no-isolation) rollout the SLO guardrail must halt",
    tags=("fleet", "guardrail"),
    kind="fleet",
)
def fleet_guardrail_breach(machines: int = 48, seed: int = 7) -> FleetSpec:
    """Ships the 'none' CPU policy under a tight guardrail: the canary must fail.

    Every row harvests an unrestricted 48-thread CPU bully — the paper's
    worst case — so the colocated tail collapses and the rollout halts at
    the canary, rolling the configuration store back to the pre-rollout
    configuration.
    Deliberately tiny (48 machines, short calibration) so the halt-and-
    rollback path runs in the fast test tier and the CI smoke step.
    """
    spec = default_fleet_spec(
        machines=machines,
        stages=3,
        seed=seed,
        target_policy="none",
        guardrail=1.5,
        calibration_qps=(300.0, 900.0),
        calibration_duration=0.5,
        calibration_warmup=0.1,
        bake_buckets=2,
        stage_buckets=2,
        samples_per_machine_bucket=8,
    )
    bullies = tuple(
        dataclasses.replace(group, secondary="cpu_bully", secondary_threads=48)
        for group in spec.groups
    )
    return spec.replace(groups=bullies)


@matrix.scenario(
    "fleet-diurnal-skew",
    "Phase-aligned versus phase-spread diurnal load across the rows",
    axes={"phase_spread": (0.0, 0.65)},
    tags=("fleet", "production"),
    kind="fleet",
)
def fleet_diurnal_skew(phase_spread: float = 0.65, machines: int = 300, seed: int = 7) -> FleetSpec:
    """Spread rows' load peaks and more capacity is reclaimable at any instant."""
    return default_fleet_spec(machines=machines, seed=seed, phase_spread=phase_spread)


@matrix.scenario(
    "fleet-hyperscale",
    "Sampled hyperscale staged rollout: tens of thousands of machines in minutes",
    axes={"machines": (10_000, 50_000)},
    tags=("fleet", "hyperscale"),
    kind="fleet",
)
def fleet_hyperscale(machines: int = 50_000, stages: int = 3, seed: int = 7) -> FleetSpec:
    """The ROADMAP's 50k-machine fleet, runnable on a laptop.

    Sampled mode: per group and colocation class, 256+ machines (2 %) run
    the full per-machine inverse-CDF draw while the rest contribute their
    closed-form expected histograms — group P99s stay within digest
    tolerance of exact mode (pinned by the cross-validation tests) at a
    fraction of the drawing cost.  Calibration is deliberately short; it is
    identical across fleet sizes and cache-shared with the other fleet
    scenarios using the same points.
    """
    return default_fleet_spec(
        machines=machines,
        stages=stages,
        seed=seed,
        calibration_qps=(1200.0, 2400.0),
        calibration_duration=1.0,
        calibration_warmup=0.2,
        bake_buckets=3,
        stage_buckets=3,
        sample_fraction=0.02,
        min_sampled_machines=256,
    )


@matrix.scenario(
    "fleet-chaos-rollout",
    "A healthy rollout surviving machine crashes, a controller crash and flaky pushes",
    tags=("fleet", "chaos"),
    kind="fleet",
)
def fleet_chaos_rollout(machines: int = 48, seed: int = 7) -> FleetSpec:
    """The crash-hardened control plane under fire, end to end.

    A viable (blind-isolation) rollout runs while the fault plan injects
    machine crash/restart churn, a coordinator crash inside stage 1's
    measurement window (its digest is lost, so the stage fails safe to a
    retry, idles out the backoff and re-measures) and transient config-push
    failures absorbed by push retries.  Sized like
    ``fleet-guardrail-breach`` so the whole recovery path runs in the fast
    test tier and the CI chaos smoke step.
    """
    faults = FaultPlanSpec(
        machines=MachineFaultSpec(crash_rate_per_hour=40.0, mean_downtime=60.0),
        controller_crash=ControllerCrashSpec(at=150.0, recovery_delay=5.0),
        config_push=ConfigPushFaultSpec(failure_rate=0.5, max_failures=2),
    )
    return default_fleet_spec(
        machines=machines,
        stages=3,
        seed=seed,
        target_policy="blind",
        guardrail=1.5,
        calibration_qps=(300.0, 900.0),
        calibration_duration=0.5,
        calibration_warmup=0.1,
        bake_buckets=2,
        stage_buckets=2,
        samples_per_machine_bucket=8,
        faults=faults,
    )


matrix.register(
    matrix.Scenario(
        name="fleet-scale-sweep",
        description="The staged rollout swept from one cluster to fleet scale",
        builder=fleet_staged_rollout,
        axes=(("machines", (650, 2000, 5000)),),
        tags=("fleet", "sweep"),
        kind="fleet",
    )
)
