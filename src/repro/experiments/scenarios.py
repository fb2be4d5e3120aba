"""Scenario builders and the registered scenario catalog.

Every builder returns a fully-populated :class:`ExperimentSpec`.  All
scenarios share the same machine, primary and workload parameters so results
are directly comparable — only the secondary mix and the isolation policy
change.

Each builder is additionally registered in the scenario matrix
(:mod:`repro.experiments.matrix`) via the ``@matrix.scenario`` decorator — a
scenario is the builder plus default sweep grids over its parameters — and
derived views (wider sweeps, 2-D grids over the same builders, and the
paper's single-machine figures over :func:`figure_run`) are registered
explicitly at the bottom of the module.  ``python -m repro.experiments.matrix
--list`` prints the resulting catalog.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Optional

from ..config.schema import (
    BlindIsolationSpec,
    BurstySpec,
    ControllerCrashSpec,
    CpuBullySpec,
    CpuCycleSpec,
    DegradedCoreSpec,
    DiskBullySpec,
    DiurnalSpec,
    ExperimentSpec,
    FaultPlanSpec,
    FlashCrowdSpec,
    HdfsSpec,
    IndexServeSpec,
    IoThrottleSpec,
    MlTrainingSpec,
    PerfIsoSpec,
    PidControlSpec,
    SchedulerSpec,
    SecondaryJobSpec,
    StaticCoreSpec,
    TelemetryFaultSpec,
    TraceSpec,
    WorkloadSpec,
)
from ..errors import ConfigError
from ..simulation.randomness import RandomStreams
from ..units import MB
from ..workloads.arrival_models import (
    ARRIVAL_MODEL_STREAM,
    BurstyArrival,
    DiurnalArrival,
    synthesize_trace,
)
from . import matrix

__all__ = [
    "AVERAGE_LOAD_QPS",
    "PEAK_LOAD_QPS",
    "MID_BULLY_THREADS",
    "HIGH_BULLY_THREADS",
    "DIURNAL_PHASES",
    "base_spec",
    "standalone",
    "standalone_peak",
    "no_isolation",
    "blind_isolation",
    "static_cores",
    "cpu_cycles",
    "disk_bound_with_throttling",
    "policy_showdown",
    "burst_storm",
    "diurnal",
    "adaptive_parallelism_off",
    "global_queue_ablation",
    "hdfs_colocation",
    "ml_training_colocation",
    "mixed_bully",
    "full_house",
    "dual_cpu_bully",
    "bully_storm",
    "diurnal_cycle",
    "diurnal_trough_reclamation",
    "flash_crowd_blind_isolation",
    "flash_crowd_no_isolation",
    "bursty_blind_isolation",
    "bursty_no_isolation",
    "replayed_trace_showdown",
    "replayed_trace_standalone",
    "bursty_replay_trace",
    "diurnal_replay_trace",
    "CONTROLLER_POLICIES",
    "SHOWDOWN_WORKLOADS",
    "controller_showdown",
    "chaos_controller_crash",
    "chaos_telemetry_dropout",
    "chaos_degraded_cores",
    "figure_run",
]

#: The paper's approximation of average and peak per-machine load (Section 5.3).
AVERAGE_LOAD_QPS = 2000.0
PEAK_LOAD_QPS = 4000.0
#: "mid" = 24 bully threads, "high" = 48 bully threads (Section 6.1.2).
MID_BULLY_THREADS = 24
HIGH_BULLY_THREADS = 48

#: Per-machine QPS of the four diurnal phases used by the ``diurnal`` scenario
#: (the trough-to-peak swing of the paper's Figure 10 live traffic).
DIURNAL_PHASES = {
    "night": 600.0,
    "morning": 1800.0,
    "midday": 2800.0,
    "evening": PEAK_LOAD_QPS,
}


def base_spec(
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """The shared machine / primary / workload configuration."""
    return ExperimentSpec(
        workload=WorkloadSpec(qps=qps, duration=duration, warmup=warmup),
        seed=seed,
    )


def _blind_perfiso(buffer_cores: int = 8, io_throttle: Optional[IoThrottleSpec] = None) -> PerfIsoSpec:
    kwargs = {"io_throttle": io_throttle} if io_throttle is not None else {}
    return PerfIsoSpec(
        cpu_policy="blind",
        blind=BlindIsolationSpec(buffer_cores=buffer_cores),
        **kwargs,
    )


# ------------------------------------------------------------------ paper core
@matrix.scenario(
    "standalone",
    "IndexServe alone at average load (the Section 6.1.1 baseline)",
    tags=("paper", "baseline"),
)
def standalone(
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """IndexServe running alone (the baseline of Section 6.1.1)."""
    return base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)


@matrix.scenario(
    "standalone-peak",
    "IndexServe alone at provisioned peak load",
    tags=("paper", "baseline"),
)
def standalone_peak(
    qps: float = PEAK_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """IndexServe running alone at the provisioned peak (4,000 QPS)."""
    return base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)


@matrix.scenario(
    "no-isolation",
    "Unrestricted CPU bully colocated at mid/high intensity (Section 6.1.2)",
    axes={"bully_threads": (MID_BULLY_THREADS, HIGH_BULLY_THREADS)},
    tags=("paper",),
)
def no_isolation(
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Colocation with an unrestricted CPU bully (Section 6.1.2)."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(spec, cpu_bully=CpuBullySpec(threads=bully_threads))


@matrix.scenario(
    "blind-isolation",
    "CPU blind isolation with 4/8 buffer cores under a high bully (Section 6.1.3)",
    axes={"buffer_cores": (4, 8)},
    tags=("paper",),
)
def blind_isolation(
    buffer_cores: int = 8,
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """CPU blind isolation with the given buffer (Section 6.1.3)."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    perfiso = _blind_perfiso(buffer_cores)
    return dataclasses.replace(
        spec, cpu_bully=CpuBullySpec(threads=bully_threads), perfiso=perfiso
    )


@matrix.scenario(
    "static-cores",
    "Static core restriction of the secondary (Section 6.1.4)",
    axes={"secondary_cores": (24, 16, 8)},
    tags=("paper",),
)
def static_cores(
    secondary_cores: int = 8,
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Static core restriction of the secondary (Section 6.1.4)."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    perfiso = PerfIsoSpec(
        cpu_policy="static_cores",
        static_cores=StaticCoreSpec(secondary_cores=secondary_cores),
    )
    return dataclasses.replace(
        spec, cpu_bully=CpuBullySpec(threads=bully_threads), perfiso=perfiso
    )


@matrix.scenario(
    "cpu-cycles",
    "Duty-cycle (CPU rate) restriction of the secondary (Section 6.1.4)",
    axes={"cpu_fraction": (0.45, 0.25, 0.05)},
    tags=("paper",),
)
def cpu_cycles(
    cpu_fraction: float = 0.05,
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Static CPU cycle (duty-cycle) restriction of the secondary (Section 6.1.4)."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    perfiso = PerfIsoSpec(
        cpu_policy="cpu_cycles",
        cpu_cycles=CpuCycleSpec(cpu_fraction=cpu_fraction),
    )
    return dataclasses.replace(
        spec, cpu_bully=CpuBullySpec(threads=bully_threads), perfiso=perfiso
    )


@matrix.scenario(
    "disk-bound-throttled",
    "Disk bully + HDFS under blind isolation and DWRR I/O throttling (Figure 9c)",
    tags=("paper", "multi-secondary", "io"),
)
def disk_bound_with_throttling(
    qps: float = PEAK_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
    bandwidth_limit: Optional[float] = 100 * MB,
    iops_limit: float = 0.0,
    buffer_cores: int = 8,
) -> ExperimentSpec:
    """Disk-bound secondary (disk bully + HDFS) with PerfIso I/O throttling.

    Mirrors the cluster experiment's per-machine configuration (Section 6.2,
    Figure 9c): blind isolation for CPU plus disk throttling of the secondary
    on the shared HDD volume.
    """
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    perfiso = _blind_perfiso(
        buffer_cores,
        io_throttle=IoThrottleSpec(
            secondary_bandwidth_limit=bandwidth_limit if bandwidth_limit else 100 * MB,
            secondary_iops_limit=iops_limit,
        ),
    )
    return dataclasses.replace(
        spec,
        disk_bully=DiskBullySpec(),
        hdfs=HdfsSpec(),
        perfiso=perfiso,
    )


# ------------------------------------------------------------------- ablations
@matrix.scenario(
    "policy-showdown",
    "Every CPU policy against the same high bully at average load (Figure 8)",
    axes={"policy": ("none", "blind", "static_cores", "cpu_cycles")},
    tags=("paper", "comparison"),
)
def policy_showdown(
    policy: str = "blind",
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """One spec per isolation policy, all else equal (the Figure 8 matchup)."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    perfiso = None if policy == "none" else PerfIsoSpec(cpu_policy=policy)
    return dataclasses.replace(
        spec, cpu_bully=CpuBullySpec(threads=bully_threads), perfiso=perfiso
    )


@matrix.scenario(
    "burst-storm",
    "Load surges above provisioned peak under blind isolation",
    axes={"surge_qps": (4000.0, 5000.0, 6000.0)},
    tags=("stress",),
    tier="slow",
)
def burst_storm(
    surge_qps: float = 5000.0,
    buffer_cores: int = 8,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Poisson burst storms past the provisioned peak, bully still attached."""
    spec = base_spec(qps=surge_qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(
        spec,
        cpu_bully=CpuBullySpec(threads=HIGH_BULLY_THREADS),
        perfiso=_blind_perfiso(buffer_cores),
    )


@matrix.scenario(
    "diurnal",
    "The four phases of a diurnal load cycle under blind isolation",
    axes={"phase": tuple(DIURNAL_PHASES)},
    tags=("production",),
)
def diurnal(
    phase: str = "midday",
    buffer_cores: int = 8,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """One diurnal phase: trough/ramp/midday/peak QPS with a colocated bully."""
    spec = base_spec(
        qps=DIURNAL_PHASES[phase], duration=duration, warmup=warmup, seed=seed
    )
    return dataclasses.replace(
        spec,
        cpu_bully=CpuBullySpec(threads=HIGH_BULLY_THREADS),
        perfiso=_blind_perfiso(buffer_cores),
    )


@matrix.scenario(
    "adaptive-parallelism-off",
    "No-isolation colocation with IndexServe's adaptive parallelism disabled",
    tags=("ablation",),
)
def adaptive_parallelism_off(
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Ablation: the primary cannot compensate by splitting work wider."""
    spec = no_isolation(
        bully_threads=bully_threads, qps=qps, duration=duration, warmup=warmup, seed=seed
    )
    return dataclasses.replace(
        spec, indexserve=IndexServeSpec(adaptive_parallelism=False)
    )


@matrix.scenario(
    "global-queue",
    "No-isolation colocation on an idealised single ready queue",
    tags=("ablation",),
)
def global_queue_ablation(
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Ablation: global ready queue instead of per-core queues."""
    spec = no_isolation(
        bully_threads=bully_threads, qps=qps, duration=duration, warmup=warmup, seed=seed
    )
    return dataclasses.replace(spec, scheduler=SchedulerSpec(placement="global"))


# ----------------------------------------------------------- other secondaries
@matrix.scenario(
    "hdfs-colo",
    "HDFS DataNode + client colocated under blind isolation (Section 5.3)",
    tags=("io",),
)
def hdfs_colocation(
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """The cluster machines' always-on HDFS footprint, isolated."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(spec, hdfs=HdfsSpec(), perfiso=_blind_perfiso())


@matrix.scenario(
    "ml-training-colo",
    "ML training batch job colocated under blind isolation (Figure 10)",
    tags=("production",),
)
def ml_training_colocation(
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """The production experiment's training job on one machine."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(
        spec, ml_training=MlTrainingSpec(), perfiso=_blind_perfiso()
    )


# ----------------------------------------------------- multi-secondary mixes
@matrix.scenario(
    "mixed-bully",
    "CPU bully + disk bully at once under blind isolation and I/O throttling",
    axes={"bully_threads": (MID_BULLY_THREADS, HIGH_BULLY_THREADS)},
    tags=("multi-secondary",),
)
def mixed_bully(
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Both micro-benchmark bullies sharing the machine with the primary."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(
        spec,
        cpu_bully=CpuBullySpec(threads=bully_threads),
        disk_bully=DiskBullySpec(),
        perfiso=_blind_perfiso(io_throttle=IoThrottleSpec()),
    )


@matrix.scenario(
    "full-house",
    "CPU bully + disk bully + HDFS + ML training colocated at once",
    tags=("multi-secondary", "stress"),
    tier="slow",
)
def full_house(
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Every batch tenant the repo models, on one machine, under PerfIso.

    This is the production-cluster story in miniature: blind isolation does
    not care *what* the secondaries are, only how many cores stay idle.
    """
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(
        spec,
        cpu_bully=CpuBullySpec(threads=MID_BULLY_THREADS),
        disk_bully=DiskBullySpec(),
        hdfs=HdfsSpec(),
        ml_training=MlTrainingSpec(threads=24),
        perfiso=_blind_perfiso(io_throttle=IoThrottleSpec()),
    )


@matrix.scenario(
    "dual-cpu-bully",
    "A large and a small CPU bully as independent jobs under blind isolation",
    axes={"small_threads": (8, 24)},
    tags=("multi-secondary",),
)
def dual_cpu_bully(
    small_threads: int = 8,
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Two separately-sized CPU bullies via ``extra_secondaries``."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(
        spec,
        cpu_bully=CpuBullySpec(threads=bully_threads),
        extra_secondaries=(
            SecondaryJobSpec(
                "cpu-bully-small", cpu_bully=CpuBullySpec(threads=small_threads)
            ),
        ),
        perfiso=_blind_perfiso(),
    )


@matrix.scenario(
    "bully-storm",
    "N independent small CPU bullies arriving as separate jobs",
    axes={"num_bullies": (2, 4, 8)},
    tags=("multi-secondary", "stress"),
    tier="slow",
)
def bully_storm(
    num_bullies: int = 4,
    threads_each: int = 6,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Many small batch jobs instead of one big one — same aggregate demand."""
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    return dataclasses.replace(
        spec,
        extra_secondaries=tuple(
            SecondaryJobSpec(
                f"storm-bully-{index}", cpu_bully=CpuBullySpec(threads=threads_each)
            )
            for index in range(num_bullies)
        ),
        perfiso=_blind_perfiso(),
    )


# ------------------------------------------------------- trace-driven workloads
def bursty_replay_trace(
    base_qps: float,
    burst_qps: float,
    total_time: float,
    trace_seed: int = 20170104,
) -> TraceSpec:
    """A replayable trace flattened from a seeded MMPP burst process.

    The trace is a pure function of its arguments — ``trace_seed`` is
    deliberately independent of the experiment seed, so every policy variant
    of a showdown replays the *same* recorded traffic.  Dwell times and the
    bucket width scale with the window, so short golden/CI runs still contain
    several bursts.
    """
    model = BurstyArrival(
        _scaled_bursty(base_qps, burst_qps, total_time),
        horizon=total_time,
        rng=RandomStreams(trace_seed).stream(ARRIVAL_MODEL_STREAM),
    )
    return synthesize_trace(
        model, duration=total_time, bucket_seconds=total_time / 44.0
    )


def _scaled_bursty(base_qps: float, burst_qps: float, total_time: float) -> BurstySpec:
    """MMPP dwell means proportional to the window (~4 bursts per run)."""
    return BurstySpec(
        base_qps=base_qps,
        burst_qps=burst_qps,
        mean_normal_seconds=0.18 * total_time,
        mean_burst_seconds=0.07 * total_time,
    )


def diurnal_replay_trace(
    peak_qps: float,
    trough_qps: float,
    total_time: float,
    bucket_seconds: float = 0.25,
) -> TraceSpec:
    """One full diurnal cycle flattened into a replayable trace."""
    model = DiurnalArrival(
        DiurnalSpec(peak_qps=peak_qps, trough_qps=trough_qps, period=total_time)
    )
    return synthesize_trace(model, duration=total_time, bucket_seconds=bucket_seconds)


@matrix.scenario(
    "diurnal-cycle",
    "A full compressed diurnal cycle under blind isolation with a high bully",
    axes={"phase_offset": (0.0, 0.5)},
    tags=("production", "trace-driven"),
)
def diurnal_cycle(
    phase_offset: float = 0.0,
    peak_qps: float = PEAK_LOAD_QPS,
    trough_qps: float = 600.0,
    buffer_cores: int = 8,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """One whole trough-to-peak cycle in a single run (period == the run)."""
    total = warmup + duration
    workload = WorkloadSpec(
        qps=(peak_qps + trough_qps) / 2.0,
        duration=duration,
        warmup=warmup,
        diurnal=DiurnalSpec(
            peak_qps=peak_qps,
            trough_qps=trough_qps,
            period=total,
            phase_offset=phase_offset,
        ),
    )
    return ExperimentSpec(
        workload=workload,
        seed=seed,
        cpu_bully=CpuBullySpec(threads=HIGH_BULLY_THREADS),
        perfiso=_blind_perfiso(buffer_cores),
    )


@matrix.scenario(
    "diurnal-trough-reclamation",
    "Harvesting at the diurnal trough: how much batch work fits the night",
    axes={"buffer_cores": (4, 8)},
    tags=("production", "trace-driven"),
)
def diurnal_trough_reclamation(
    buffer_cores: int = 8,
    peak_qps: float = PEAK_LOAD_QPS,
    trough_qps: float = 1600.0,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """A short window pinned at the trough of a long diurnal period.

    ``phase_offset=0.5`` puts the cosine minimum at t=0; with the period much
    longer than the run, the whole window sits near the trough — the regime
    where blind isolation reclaims the most cores for the ML training job.
    """
    workload = WorkloadSpec(
        qps=trough_qps,
        duration=duration,
        warmup=warmup,
        diurnal=DiurnalSpec(
            peak_qps=peak_qps,
            trough_qps=trough_qps,
            period=3600.0,
            phase_offset=0.5,
        ),
    )
    return ExperimentSpec(
        workload=workload,
        seed=seed,
        ml_training=MlTrainingSpec(),
        perfiso=_blind_perfiso(buffer_cores),
    )


@matrix.scenario(
    "flash-crowd-blind-isolation",
    "A flash crowd spiking past peak while blind isolation defends the buffer",
    axes={"spike_qps": (PEAK_LOAD_QPS, 6000.0)},
    tags=("stress", "trace-driven"),
)
def flash_crowd_blind_isolation(
    spike_qps: float = 6000.0,
    base_qps: float = AVERAGE_LOAD_QPS,
    buffer_cores: int = 8,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Base load, then a mid-run ramp/hold/decay spike, bully colocated."""
    total = warmup + duration
    workload = WorkloadSpec(
        qps=base_qps,
        duration=duration,
        warmup=warmup,
        flash_crowd=FlashCrowdSpec(
            base_qps=base_qps,
            spike_qps=spike_qps,
            start=warmup + 0.3 * duration,
            ramp=0.05 * total,
            hold=0.2 * total,
            decay=0.1 * total,
        ),
    )
    return ExperimentSpec(
        workload=workload,
        seed=seed,
        cpu_bully=CpuBullySpec(threads=HIGH_BULLY_THREADS),
        perfiso=_blind_perfiso(buffer_cores),
    )


@matrix.scenario(
    "flash-crowd-no-isolation",
    "The same flash crowd with the bully unrestricted (the blind spot)",
    tags=("stress", "trace-driven"),
)
def flash_crowd_no_isolation(
    spike_qps: float = 6000.0,
    base_qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Ablation twin of ``flash-crowd-blind-isolation`` without PerfIso."""
    spec = flash_crowd_blind_isolation(
        spike_qps=spike_qps,
        base_qps=base_qps,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
    return dataclasses.replace(spec, perfiso=None)


@matrix.scenario(
    "bursty-blind-isolation",
    "Markov-modulated burst traffic under blind isolation with a high bully",
    axes={"burst_qps": (PEAK_LOAD_QPS, 6000.0)},
    tags=("stress", "trace-driven"),
)
def bursty_blind_isolation(
    burst_qps: float = 6000.0,
    base_qps: float = AVERAGE_LOAD_QPS,
    buffer_cores: int = 8,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """MMPP arrivals: calm stretches punctuated by seconds-long bursts."""
    workload = WorkloadSpec(
        qps=base_qps,
        duration=duration,
        warmup=warmup,
        bursty=_scaled_bursty(base_qps, burst_qps, warmup + duration),
    )
    return ExperimentSpec(
        workload=workload,
        seed=seed,
        cpu_bully=CpuBullySpec(threads=HIGH_BULLY_THREADS),
        perfiso=_blind_perfiso(buffer_cores),
    )


@matrix.scenario(
    "bursty-no-isolation",
    "The same burst traffic with the bully unrestricted",
    tags=("stress", "trace-driven"),
)
def bursty_no_isolation(
    burst_qps: float = 6000.0,
    base_qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Ablation twin of ``bursty-blind-isolation`` without PerfIso."""
    spec = bursty_blind_isolation(
        burst_qps=burst_qps,
        base_qps=base_qps,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
    return dataclasses.replace(spec, perfiso=None)


@matrix.scenario(
    "replayed-trace-showdown",
    "Every CPU policy replaying the identical recorded burst trace",
    axes={"policy": ("none", "blind", "static_cores", "cpu_cycles")},
    tags=("comparison", "trace-driven"),
)
def replayed_trace_showdown(
    policy: str = "blind",
    base_qps: float = AVERAGE_LOAD_QPS,
    burst_qps: float = 6000.0,
    bully_threads: int = HIGH_BULLY_THREADS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """Figure 8 rerun on recorded traffic: same trace file, four policies."""
    workload = WorkloadSpec(
        qps=base_qps,
        duration=duration,
        warmup=warmup,
        trace=bursty_replay_trace(base_qps, burst_qps, total_time=warmup + duration),
    )
    perfiso = None if policy == "none" else PerfIsoSpec(cpu_policy=policy)
    return ExperimentSpec(
        workload=workload,
        seed=seed,
        cpu_bully=CpuBullySpec(threads=bully_threads),
        perfiso=perfiso,
    )


@matrix.scenario(
    "replayed-trace-standalone",
    "IndexServe alone replaying a recorded diurnal trace",
    tags=("baseline", "trace-driven"),
)
def replayed_trace_standalone(
    peak_qps: float = PEAK_LOAD_QPS,
    trough_qps: float = 1600.0,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """The trace round-trip in scenario form: synthesize -> replay -> measure."""
    workload = WorkloadSpec(
        qps=(peak_qps + trough_qps) / 2.0,
        duration=duration,
        warmup=warmup,
        trace=diurnal_replay_trace(peak_qps, trough_qps, total_time=warmup + duration),
    )
    return ExperimentSpec(workload=workload, seed=seed)


# ------------------------------------------------------- controller showdown
#: Every registered CPU policy, legacy and challenger, in showdown order.
CONTROLLER_POLICIES = (
    "blind",
    "static_cores",
    "cpu_cycles",
    "none",
    "pid",
    "mpc",
    "utilization",
    "oracle",
)

#: The PR-5 trace-driven workload shapes the controllers are raced across.
SHOWDOWN_WORKLOADS = ("diurnal", "bursty", "flash_crowd", "trace")


@matrix.scenario(
    "controller-showdown",
    "Every dynamic CPU controller raced across the trace-driven workloads",
    axes={"workload": SHOWDOWN_WORKLOADS, "policy": CONTROLLER_POLICIES},
    tags=("comparison", "trace-driven", "controller"),
    tier="slow",
)
def controller_showdown(
    policy: str = "blind",
    workload: str = "flash_crowd",
    base_qps: float = AVERAGE_LOAD_QPS,
    peak_qps: float = 6000.0,
    slo_ms: float = 15.0,
    bully_threads: int = HIGH_BULLY_THREADS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
    faults: Optional[FaultPlanSpec] = None,
) -> ExperimentSpec:
    """One (controller, workload-shape) cell of the controller arena.

    Every cell at one workload shape shares the identical seed, trace and
    bully, so the only degree of freedom is the CPU policy — the controllers
    see the same traffic and their rankings are attributable to the policy
    alone.  ``slo_ms`` feeds both the PID controller's set point and the
    showdown harness's pass/fail column.  ``faults`` is injected as given,
    except that the ``"none"`` policy has no controller to crash, so its
    cells drop any ``controller_crash`` entry.
    """
    if policy not in CONTROLLER_POLICIES:
        raise ConfigError(f"unknown controller {policy!r}; expected one of {CONTROLLER_POLICIES}")
    total = warmup + duration
    if workload == "diurnal":
        workload_spec = WorkloadSpec(
            qps=(peak_qps + base_qps) / 2.0,
            duration=duration,
            warmup=warmup,
            diurnal=DiurnalSpec(peak_qps=peak_qps, trough_qps=base_qps, period=total),
        )
    elif workload == "bursty":
        workload_spec = WorkloadSpec(
            qps=base_qps,
            duration=duration,
            warmup=warmup,
            bursty=_scaled_bursty(base_qps, peak_qps, total),
        )
    elif workload == "flash_crowd":
        workload_spec = WorkloadSpec(
            qps=base_qps,
            duration=duration,
            warmup=warmup,
            flash_crowd=FlashCrowdSpec(
                base_qps=base_qps,
                spike_qps=peak_qps,
                start=warmup + 0.3 * duration,
                ramp=0.05 * total,
                hold=0.2 * total,
                decay=0.1 * total,
            ),
        )
    elif workload == "trace":
        workload_spec = WorkloadSpec(
            qps=base_qps,
            duration=duration,
            warmup=warmup,
            trace=bursty_replay_trace(base_qps, peak_qps, total_time=total),
        )
    else:
        raise ConfigError(
            f"unknown workload {workload!r}; expected one of {SHOWDOWN_WORKLOADS}"
        )
    perfiso = (
        None
        if policy == "none"
        else PerfIsoSpec(
            cpu_policy=policy,
            pid=PidControlSpec(slo_p99=slo_ms / 1000.0),
        )
    )
    if perfiso is None and faults is not None and faults.controller_crash is not None:
        faults = dataclasses.replace(faults, controller_crash=None)
    return ExperimentSpec(
        workload=workload_spec,
        seed=seed,
        cpu_bully=CpuBullySpec(threads=bully_threads),
        perfiso=perfiso,
        faults=faults,
    )


# ------------------------------------------------------------ chaos scenarios
# Deterministic fault injection: the same experiment as the healthy scenario,
# plus a fault plan drawn from the named "faults" stream.  Every window scales
# with warmup/duration, so the golden-tier runs exercise the same phases as
# the full-length ones.
@matrix.scenario(
    "chaos-controller-crash",
    "Blind isolation with the controller crashing and recovering mid-run",
    tags=("chaos", "controller"),
)
def chaos_controller_crash(
    recovery_delay: float = 0.05,
    buffer_cores: int = 8,
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """``blind-isolation`` with a mid-run controller crash.

    The controller checkpoints periodically, dies at 40% of the measured
    window, and restarts ``recovery_delay`` seconds later from its last
    checkpoint — while it is down the secondary keeps whatever core count
    the last decision granted.
    """
    spec = blind_isolation(
        buffer_cores=buffer_cores,
        bully_threads=bully_threads,
        qps=qps,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
    faults = FaultPlanSpec(
        controller_crash=ControllerCrashSpec(
            at=warmup + 0.4 * duration,
            recovery_delay=recovery_delay,
        )
    )
    return dataclasses.replace(spec, faults=faults)


@matrix.scenario(
    "chaos-telemetry-dropout",
    "The PID controller flying blind through a telemetry dropout window",
    axes={"mode": ("missing", "frozen")},
    tags=("chaos", "controller"),
)
def chaos_telemetry_dropout(
    mode: str = "missing",
    slo_ms: float = 15.0,
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """A latency-feedback controller whose telemetry degrades mid-run.

    ``"missing"`` makes P99 reads return nothing (the policy must hold);
    ``"frozen"`` serves the last healthy value (a stale cache that keeps
    answering).  The window covers 30%..60% of the measured run.
    """
    spec = base_spec(qps=qps, duration=duration, warmup=warmup, seed=seed)
    perfiso = PerfIsoSpec(
        cpu_policy="pid", pid=PidControlSpec(slo_p99=slo_ms / 1000.0)
    )
    faults = FaultPlanSpec(
        telemetry=TelemetryFaultSpec(
            mode=mode, start=warmup + 0.3 * duration, duration=0.3 * duration
        )
    )
    return dataclasses.replace(
        spec,
        cpu_bully=CpuBullySpec(threads=bully_threads),
        perfiso=perfiso,
        faults=faults,
    )


@matrix.scenario(
    "chaos-degraded-cores",
    "A mid-run straggler window slowing every core under blind isolation",
    axes={"slowdown": (1.5, 3.0)},
    tags=("chaos",),
)
def chaos_degraded_cores(
    slowdown: float = 1.5,
    buffer_cores: int = 8,
    bully_threads: int = HIGH_BULLY_THREADS,
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """``blind-isolation`` on a machine that straggles for half the run.

    Every core dispatches at ``1/slowdown`` speed from 20% to 70% of the
    measured window — the thermal-throttle / noisy-VM shape the degraded-core
    fault models — then recovers.
    """
    spec = blind_isolation(
        buffer_cores=buffer_cores,
        bully_threads=bully_threads,
        qps=qps,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
    faults = FaultPlanSpec(
        degraded=DegradedCoreSpec(
            slowdown=slowdown, start=warmup + 0.2 * duration, duration=0.5 * duration
        )
    )
    return dataclasses.replace(spec, faults=faults)


# ------------------------------------------------------------- paper figures
# Figures 4-8 and the abstract's headline run, registered at the bottom of the
# module as scenarios over one builder.  A run is named as its figure names
# it; the per-load figures list each load's standalone baseline first.
_FIGURE_RUNS = {
    "standalone": standalone,
    "mid-secondary": partial(no_isolation, MID_BULLY_THREADS),
    "high-secondary": partial(no_isolation, HIGH_BULLY_THREADS),
    "no_isolation": partial(no_isolation, HIGH_BULLY_THREADS),
    "blind_isolation": partial(blind_isolation, 8),
    "cpu_cores": partial(static_cores, 8),
    "cpu_cycles": partial(cpu_cycles, 0.05),
}

#: Swept figure runs, named ``<prefix>-<level>``: buffer cores, secondary
#: cores, or the secondary's share of CPU cycles in percent.
_FIGURE_LEVELS = {
    "blind": blind_isolation,
    "cores": static_cores,
    "cycles": lambda percent, **common: cpu_cycles(percent / 100, **common),
}


def figure_run(
    run: str = "standalone",
    qps: float = AVERAGE_LOAD_QPS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
) -> ExperimentSpec:
    """One run of a paper figure, by the name the figure gives it."""
    common = dict(qps=qps, duration=duration, warmup=warmup, seed=seed)
    if run in _FIGURE_RUNS:
        return _FIGURE_RUNS[run](**common)
    prefix, _, level = str(run).partition("-")
    if prefix in _FIGURE_LEVELS and level.isdigit():
        return _FIGURE_LEVELS[prefix](int(level), **common)
    known = ", ".join([*_FIGURE_RUNS, "blind-N", "cores-N", "cycles-PERCENT"])
    raise ConfigError(f"unknown figure run {run!r}; expected one of {known}")


# ------------------------------------------------------------- derived views
# Wider sweeps and 2-D grids over the builders above.  Registered explicitly
# (not via decorators) because they reuse a builder that already anchors a
# scenario.
matrix.register(
    matrix.Scenario(
        name="bully-sweep",
        description="Unrestricted bully intensity swept from 8 to 48 threads",
        builder=no_isolation,
        axes=(("bully_threads", (8, 16, 24, 32, 40, 48)),),
        tags=("sweep",),
        tier="slow",
    )
)
matrix.register(
    matrix.Scenario(
        name="blind-buffer-sweep",
        description="Blind isolation buffer swept from 2 to 16 cores",
        builder=blind_isolation,
        axes=(("buffer_cores", (2, 4, 6, 8, 12, 16)),),
        tags=("sweep",),
        tier="slow",
    )
)
matrix.register(
    matrix.Scenario(
        name="load-sweep",
        description="Standalone latency-vs-load curve from trough to past peak",
        builder=standalone,
        axes=(("qps", (500.0, 1000.0, 2000.0, 3000.0, 4000.0)),),
        tags=("sweep", "baseline"),
        tier="slow",
    )
)
matrix.register(
    matrix.Scenario(
        name="isolated-load-sweep",
        description="Blind isolation (8 buffers, high bully) across load levels",
        builder=blind_isolation,
        axes=(("qps", (1000.0, 2000.0, 3000.0, 4000.0)),),
        tags=("sweep",),
        tier="slow",
    )
)
matrix.register(
    matrix.Scenario(
        name="colocation-grid",
        description="2-D grid: load level x bully intensity, no isolation",
        builder=no_isolation,
        axes=(
            ("qps", (AVERAGE_LOAD_QPS, PEAK_LOAD_QPS)),
            ("bully_threads", (MID_BULLY_THREADS, HIGH_BULLY_THREADS)),
        ),
        tags=("sweep", "grid"),
        tier="slow",
    )
)
matrix.register(
    matrix.Scenario(
        name="flash-crowd-buffer-sweep",
        description="Flash crowd absorbed by buffers swept from 2 to 12 cores",
        builder=flash_crowd_blind_isolation,
        axes=(("buffer_cores", (2, 4, 8, 12)),),
        tags=("sweep", "trace-driven"),
        tier="slow",
    )
)
matrix.register(
    matrix.Scenario(
        name="diurnal-phase-grid",
        description="2-D grid: diurnal phase offset x buffer size",
        builder=diurnal_cycle,
        axes=(
            ("phase_offset", (0.0, 0.25, 0.5)),
            ("buffer_cores", (4, 8)),
        ),
        tags=("sweep", "grid", "trace-driven"),
        tier="slow",
    )
)
matrix.register(
    matrix.Scenario(
        name="controller-arena",
        description="The dynamic challengers vs blind vs nothing on a flash crowd",
        builder=controller_showdown,
        axes=(("policy", ("blind", "pid", "mpc", "utilization", "oracle", "none")),),
        tags=("comparison", "trace-driven", "controller"),
    )
)
matrix.register(
    matrix.Scenario(
        name="buffer-load-grid",
        description="2-D grid: buffer size x load level under blind isolation",
        builder=blind_isolation,
        axes=(
            ("buffer_cores", (4, 8)),
            ("qps", (AVERAGE_LOAD_QPS, PEAK_LOAD_QPS)),
        ),
        tags=("sweep", "grid"),
        tier="slow",
    )
)

# The paper's single-machine figures (see "paper figures" above).
_LOADS = (("qps", (AVERAGE_LOAD_QPS, PEAK_LOAD_QPS)),)
for _name, _description, _axes in (
    ("fig4", "Standalone vs colocation with an unrestricted secondary",
     _LOADS + (("run", ("standalone", "mid-secondary", "high-secondary")),)),
    ("fig5", "CPU blind isolation: latency degradation vs buffer size",
     _LOADS + (("run", ("standalone", "blind-4", "blind-8")),)),
    ("fig6", "Static core restriction of the secondary",
     _LOADS + (("run", ("standalone", "cores-24", "cores-16", "cores-8")),)),
    ("fig7", "CPU cycle (duty-cycle) restriction of the secondary",
     _LOADS + (("run", ("standalone", "cycles-45", "cycles-25", "cycles-5")),)),
    ("fig8", "Comparison of isolation approaches (high secondary, 2,000 QPS)",
     (("run", ("standalone", "no_isolation", "blind_isolation", "cpu_cores", "cpu_cycles")),)),
    ("headline", "Average CPU utilisation with and without colocation (off-peak load)",
     (("run", ("standalone", "blind-8")),)),
):
    matrix.register(matrix.Scenario(
        _name, _description, figure_run, _axes, tags=("paper", "figure"), tier="slow"
    ))
