"""Cross-field validation of experiment configurations.

Individual dataclasses validate their own fields in ``__post_init__``; this
module checks the *relationships between* components that only make sense at
experiment-assembly time (e.g. the secondary's static core allocation cannot
exceed the machine's core count, the primary's memory footprint must fit in
RAM, buffer cores must leave at least one core for the primary).
"""

from __future__ import annotations

from ..errors import ConfigError
from .schema import (
    BlindIsolationSpec,
    ClusterScenario,
    ClusterSpec,
    ExperimentSpec,
    FaultPlanSpec,
    FleetSpec,
    MpcControlSpec,
    OracleControlSpec,
    PidControlSpec,
    StaticCoreSpec,
    UtilizationTargetSpec,
)

__all__ = [
    "validate_experiment",
    "validate_cluster",
    "validate_cluster_scenario",
    "validate_fleet",
    "validate_fault_plan",
]


def validate_fault_plan(plan: FaultPlanSpec, horizon: float, context: str) -> None:
    """Cross-field checks of a fault plan against its run's time horizon.

    A fault window that opens after the run ends is almost always a unit
    mistake (seconds vs buckets); failing loudly beats silently injecting
    nothing.  ``context`` names the owning spec in error messages.
    """
    degraded = plan.degraded
    if degraded is not None and degraded.start >= horizon:
        raise ConfigError(
            f"{context}: degraded-core window starts at {degraded.start} s but the "
            f"run ends at {horizon} s; the fault would never fire"
        )
    telemetry = plan.telemetry
    if telemetry is not None and telemetry.start >= horizon:
        raise ConfigError(
            f"{context}: telemetry fault window starts at {telemetry.start} s but "
            f"the run ends at {horizon} s; the fault would never fire"
        )
    crash = plan.controller_crash
    if crash is not None and crash.at >= horizon:
        raise ConfigError(
            f"{context}: controller crash at {crash.at} s is past the end of the "
            f"run ({horizon} s); the fault would never fire"
        )
    machines = plan.machines
    if machines is not None and machines.mean_downtime >= horizon:
        raise ConfigError(
            f"{context}: mean machine downtime ({machines.mean_downtime} s) is at "
            f"least the whole run ({horizon} s); a crashed machine would never "
            "restart inside the simulated window"
        )


def validate_experiment(spec: ExperimentSpec) -> None:
    """Raise :class:`ConfigError` if ``spec`` is internally inconsistent."""
    cores = spec.machine.logical_cores
    memory = spec.machine.memory_bytes

    if spec.indexserve.memory_footprint_bytes >= memory:
        raise ConfigError(
            "primary memory footprint "
            f"({spec.indexserve.memory_footprint_bytes} B) does not fit in machine memory "
            f"({memory} B)"
        )
    if spec.indexserve.workers_per_query_max > cores * 4:
        raise ConfigError(
            "workers_per_query_max is implausibly large for the machine "
            f"({spec.indexserve.workers_per_query_max} workers, {cores} cores)"
        )

    if spec.perfiso is not None:
        perfiso = spec.perfiso
        cpu = perfiso.cpu
        if isinstance(cpu, BlindIsolationSpec):
            if cpu.buffer_cores >= cores:
                raise ConfigError(
                    f"buffer_cores ({cpu.buffer_cores}) must be smaller than the "
                    f"machine's logical core count ({cores})"
                )
            if cpu.min_secondary_cores > cores - cpu.buffer_cores:
                raise ConfigError(
                    "min_secondary_cores cannot exceed cores remaining after the buffer"
                )
        if isinstance(cpu, StaticCoreSpec):
            if cpu.secondary_cores > cores:
                raise ConfigError(
                    f"static secondary core allocation ({cpu.secondary_cores}) "
                    f"exceeds machine core count ({cores})"
                )
        if isinstance(cpu, (PidControlSpec, UtilizationTargetSpec)):
            name = "pid" if isinstance(cpu, PidControlSpec) else "utilization"
            if cpu.reserve_cores >= cores:
                raise ConfigError(
                    f"{name} reserve_cores ({cpu.reserve_cores}) must be "
                    f"smaller than the machine's logical core count ({cores})"
                )
            if cpu.min_secondary_cores > cores - cpu.reserve_cores:
                raise ConfigError(
                    f"{name} min_secondary_cores cannot exceed cores "
                    "remaining after the reserve"
                )
        if isinstance(cpu, (MpcControlSpec, OracleControlSpec)):
            name = "mpc" if isinstance(cpu, MpcControlSpec) else "oracle"
            if cpu.headroom_cores >= cores:
                raise ConfigError(
                    f"{name} headroom_cores ({cpu.headroom_cores}) must be "
                    f"smaller than the machine's logical core count ({cores})"
                )
            if cpu.min_secondary_cores > cores:
                raise ConfigError(
                    f"{name} min_secondary_cores ({cpu.min_secondary_cores}) "
                    f"exceeds machine core count ({cores})"
                )
        if perfiso.poll_interval > spec.workload.duration:
            raise ConfigError("PerfIso poll interval is longer than the experiment itself")

    jobs = spec.secondary_jobs()
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ConfigError(
            f"secondary job names must be unique per experiment, duplicated: {duplicates}"
        )

    bully_threads = sum(
        job.tenant_spec.threads for job in jobs if job.kind == "cpu_bully"
    )
    if bully_threads > cores * 8:
        raise ConfigError(
            f"combined cpu bully thread count ({bully_threads}) is implausibly large "
            f"for {cores} cores"
        )

    secondary_memory = sum(job.memory_bytes for job in jobs)
    if spec.indexserve.memory_footprint_bytes + secondary_memory > memory * 1.5:
        raise ConfigError(
            "combined tenant memory footprint is more than 1.5x machine memory; "
            "the experiment would only measure swapping behaviour the simulator does not model"
        )

    if spec.workload.warmup >= spec.workload.total_time:
        raise ConfigError("warmup must leave measurable time in the experiment")

    flash = spec.workload.flash_crowd
    if flash is not None and flash.start >= spec.workload.total_time:
        raise ConfigError(
            f"flash crowd starts at {flash.start} s but the experiment ends at "
            f"{spec.workload.total_time} s; the workload would silently degenerate "
            "to its constant base rate"
        )

    if spec.faults is not None:
        if spec.faults.machines is not None:
            raise ConfigError(
                "machine crash/restart faults apply to fleet specs; a "
                "single-machine experiment has no fleet to fail over to"
            )
        if spec.faults.config_push is not None:
            raise ConfigError(
                "config-push faults apply to fleet rollouts; a single-machine "
                "experiment performs no configuration pushes"
            )
        if spec.faults.controller_crash is not None and spec.perfiso is None:
            raise ConfigError(
                "a controller-crash fault needs a PerfIso controller to crash "
                "(spec.perfiso is None)"
            )
        validate_fault_plan(
            spec.faults, horizon=spec.workload.total_time, context="experiment"
        )


def validate_cluster(spec: ClusterSpec) -> None:
    """Raise :class:`ConfigError` if a cluster layout is inconsistent."""
    if spec.rows > spec.partitions * 4:
        raise ConfigError("more rows than is plausible for the number of partitions")


def validate_cluster_scenario(scenario: ClusterScenario) -> None:
    """Raise :class:`ConfigError` if a cluster experiment cannot run: its
    layout, its node spec, or a node workload that is not constant-rate.

    One constant-rate client drives the whole cluster; a node's arrival
    model would reach only its controller's forecast, not its load.
    """
    validate_cluster(scenario.cluster)
    validate_experiment(scenario.node)
    kind = scenario.node.workload.arrival_kind
    if kind != "constant":
        raise ConfigError(
            f"cluster nodes need a constant-rate workload, got a {kind!r} arrival model"
        )


def validate_fleet(spec: FleetSpec) -> None:
    """Raise :class:`ConfigError` if a fleet configuration is inconsistent."""
    names = [group.name for group in spec.groups]
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ConfigError(f"machine group names must be unique, duplicated: {duplicates}")
    for group in spec.groups:
        cores = group.machine.logical_cores
        if group.buffer_cores >= cores:
            raise ConfigError(
                f"group {group.name!r} buffer_cores ({group.buffer_cores}) must be "
                f"smaller than its machines' logical core count ({cores})"
            )
    total_buckets = spec.rollout.bake_buckets + len(spec.rollout.stage_fractions) * spec.rollout.stage_buckets
    if total_buckets * spec.bucket_seconds > spec.diurnal_period * 48:
        raise ConfigError(
            "the rollout spans more than 48 diurnal periods; shrink the bucket "
            "counts or bucket_seconds, or grow diurnal_period"
        )
    if spec.sample_fraction < 1.0:
        # Sampled (hyperscale) mode: the per-group P99 estimate rests on the
        # sampled machines' empirical draws, so each group class must yield a
        # statistically sufficient sample count per bucket (>= ~10 samples
        # above the 99th percentile).
        floor = spec.min_sampled_machines * spec.samples_per_machine_bucket
        if floor < 1024:
            raise ConfigError(
                "sampled fleet mode needs min_sampled_machines * "
                f"samples_per_machine_bucket >= 1024 for a stable P99, got {floor}; "
                "raise min_sampled_machines, raise samples_per_machine_bucket, "
                "or run exact mode (sample_fraction=1.0)"
            )
    if spec.faults is not None:
        validate_fault_plan(
            spec.faults,
            horizon=total_buckets * spec.bucket_seconds,
            context="fleet",
        )
