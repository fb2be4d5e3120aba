"""Typed configuration schema for machines, tenants, PerfIso and experiments.

Every tunable in the simulator lives in one of the frozen dataclasses below.
Default values reproduce the hardware and software configuration reported in
Section 5.2/5.3 of the paper (two-socket Xeon E5-2673 v3, 48 logical cores,
128 GB RAM, 4x SSD + 4x HDD striped volumes, IndexServe with a ~110 GB cache,
an 8-buffer-core blind-isolation PerfIso deployment).

The dataclasses are immutable so a configuration can be shared between the
many components of one experiment without defensive copying; use
``dataclasses.replace`` to derive variants.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ConfigError
from ..units import GIB, MB, micros, millis

__all__ = [
    "DiskSpec",
    "VolumeSpec",
    "MachineSpec",
    "SchedulerSpec",
    "IndexServeSpec",
    "CpuBullySpec",
    "DiskBullySpec",
    "HdfsSpec",
    "MlTrainingSpec",
    "SecondaryJobSpec",
    "BlindIsolationSpec",
    "StaticCoreSpec",
    "CpuCycleSpec",
    "PidControlSpec",
    "MpcControlSpec",
    "UtilizationTargetSpec",
    "OracleControlSpec",
    "IoThrottleSpec",
    "MemoryGuardSpec",
    "PerfIsoSpec",
    "DiurnalSpec",
    "BurstySpec",
    "FlashCrowdSpec",
    "TraceSpec",
    "WorkloadSpec",
    "ClusterSpec",
    "MachineFaultSpec",
    "DegradedCoreSpec",
    "TelemetryFaultSpec",
    "ControllerCrashSpec",
    "ConfigPushFaultSpec",
    "FaultPlanSpec",
    "ExperimentSpec",
    "ClusterScenario",
    "MachineGroupSpec",
    "PlacementSpec",
    "RolloutSpec",
    "FleetSpec",
    "CampaignSpec",
]

#: Tenant kinds a fleet machine group may run as its harvested secondary.
SECONDARY_KINDS = ("cpu_bully", "disk_bully", "hdfs", "ml_training")


# --------------------------------------------------------------------------- hardware
@dataclass(frozen=True)
class DiskSpec:
    """A single physical disk device.

    Parameters mirror a simple service-time model: a request costs
    ``base_latency`` plus ``size / bandwidth``, and at most ``max_queue_depth``
    requests are serviced concurrently (the rest wait in a FIFO queue).
    """

    kind: str = "ssd"
    base_latency: float = micros(80)
    bandwidth_bytes_per_s: float = 450 * MB
    max_queue_depth: int = 32

    def __post_init__(self) -> None:
        if self.kind not in ("ssd", "hdd"):
            raise ConfigError(f"disk kind must be 'ssd' or 'hdd', got {self.kind!r}")
        if self.base_latency < 0 or self.bandwidth_bytes_per_s <= 0:
            raise ConfigError("disk latency must be >= 0 and bandwidth > 0")
        if self.max_queue_depth < 1:
            raise ConfigError("disk max_queue_depth must be >= 1")


@dataclass(frozen=True)
class VolumeSpec:
    """A striped volume made of ``count`` identical disks."""

    name: str
    disk: DiskSpec
    count: int = 4
    stripe_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError(f"volume {self.name!r} needs at least one disk")
        if self.stripe_bytes < 4096:
            raise ConfigError(f"volume {self.name!r} stripe must be >= 4 KiB")


def _default_ssd_volume() -> VolumeSpec:
    return VolumeSpec(name="ssd", disk=DiskSpec(kind="ssd"), count=4)


def _default_hdd_volume() -> VolumeSpec:
    return VolumeSpec(
        name="hdd",
        disk=DiskSpec(
            kind="hdd",
            base_latency=millis(6.0),
            bandwidth_bytes_per_s=160 * MB,
            max_queue_depth=8,
        ),
        count=4,
    )


@dataclass(frozen=True)
class MachineSpec:
    """The production server of Section 5.2."""

    sockets: int = 2
    cores_per_socket: int = 12
    threads_per_core: int = 2
    memory_bytes: int = 128 * GIB
    ssd_volume: VolumeSpec = field(default_factory=_default_ssd_volume)
    hdd_volume: VolumeSpec = field(default_factory=_default_hdd_volume)

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1 or self.threads_per_core < 1:
            raise ConfigError("machine topology counts must all be >= 1")
        if self.memory_bytes <= 0:
            raise ConfigError("machine memory must be positive")

    @property
    def logical_cores(self) -> int:
        """Total number of logical cores (the paper's ``48``)."""
        return self.sockets * self.cores_per_socket * self.threads_per_core


@dataclass(frozen=True)
class SchedulerSpec:
    """Parameters of the simulated OS thread scheduler.

    ``quantum`` is the time slice after which a running thread is requeued if
    other runnable threads are eligible for its core (the default approximates
    the long quantum Windows Server uses).  ``context_switch_cost`` is charged
    to the OS category on every dispatch.  ``rate_interval`` is the enforcement
    window for job-object CPU rate control (the alternative isolation mechanism
    of Section 6.1.4).  ``smt_slowdown`` is the throughput factor a thread
    retains when the sibling hyper-thread of its physical core is also busy.
    ``placement`` selects how newly-ready threads are queued when no idle core
    is available: ``"per_core"`` models real per-processor ready queues (a
    waiting thread is stuck behind one specific core's running thread);
    ``"global"`` is an idealised single queue kept for ablation studies.
    """

    quantum: float = millis(120)
    context_switch_cost: float = micros(5)
    rate_interval: float = millis(100)
    smt_slowdown: float = 0.90
    placement: str = "per_core"

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ConfigError("scheduler quantum must be positive")
        if self.context_switch_cost < 0:
            raise ConfigError("scheduler overheads must be >= 0")
        if self.rate_interval <= 0:
            raise ConfigError("rate enforcement interval must be positive")
        if not 0.1 <= self.smt_slowdown <= 1.0:
            raise ConfigError("smt_slowdown must be in [0.1, 1.0]")
        if self.placement not in ("per_core", "global"):
            raise ConfigError("placement must be 'per_core' or 'global'")


# --------------------------------------------------------------------------- tenants
@dataclass(frozen=True)
class IndexServeSpec:
    """Synthetic stand-in for Bing IndexServe (the primary tenant).

    The defaults are calibrated so a standalone machine reproduces the paper's
    baseline: median query latency ~4 ms, P99 ~12 ms, and CPU ~20 % / ~40 %
    busy at 2,000 / 4,000 QPS (Figure 4).
    """

    #: Mean number of worker threads spawned per query.
    workers_per_query_mean: float = 4.0
    #: Hard cap on workers per query (the paper observes up to 15 ready
    #: threads in a 5 microsecond window).
    workers_per_query_max: int = 15
    #: Minimum number of workers per query.
    workers_per_query_min: int = 2
    #: Log-normal service-time parameters for one worker's CPU burst.
    worker_service_mu_ms: float = -0.60
    worker_service_sigma: float = 1.05
    #: Upper bound on a single worker burst (seconds).
    worker_service_cap: float = millis(30)
    #: CPU cost of parsing / dispatching a query (runs on one thread).
    parse_cost: float = micros(300)
    #: CPU cost of merging worker results after the last worker finishes.
    aggregate_cost: float = micros(800)
    #: Probability that a worker needs an SSD read (index cache miss).
    cache_miss_rate: float = 0.35
    #: Size of the SSD read issued on a cache miss.
    cache_miss_read_bytes: int = 128 * 1024
    #: Query timeout: queries slower than this are counted as dropped.
    timeout: float = millis(500)
    #: Fixed memory footprint of the in-memory index cache.
    memory_footprint_bytes: int = 110 * GIB
    #: Bytes written to the (HDD) log volume per query (asynchronous).
    log_bytes_per_query: int = 2 * 1024
    #: Adaptive parallelism: when the number of in-flight queries exceeds
    #: ``adaptive_threshold`` the service splits the largest index-lookup
    #: chunks across extra workers (target-driven parallelism in the style of
    #: TPC [15]), trading extra threads and a little per-worker overhead for
    #: lower latency.  This is the compensation behaviour the paper observes
    #: in Section 6.1.2: under interference the primary's CPU usage rises.
    adaptive_parallelism: bool = True
    adaptive_threshold: int = 24
    adaptive_extra_workers: int = 4
    adaptive_split_overhead: float = micros(60)

    def __post_init__(self) -> None:
        if not (self.workers_per_query_min
                <= self.workers_per_query_mean
                <= self.workers_per_query_max):
            raise ConfigError("workers_per_query_min <= mean <= max must hold")
        if not 0.0 <= self.cache_miss_rate <= 1.0:
            raise ConfigError("cache_miss_rate must be a probability")
        if self.timeout <= 0:
            raise ConfigError("query timeout must be positive")


@dataclass(frozen=True)
class CpuBullySpec:
    """The CPU-intensive secondary micro-benchmark of Section 5.3."""

    threads: int = 48
    #: CPU work per progress "iteration"; progress is reported as iterations.
    iteration_cost: float = millis(1.0)
    memory_bytes: int = 1 * GIB

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError("cpu bully needs at least one thread")
        if self.iteration_cost <= 0:
            raise ConfigError("cpu bully iteration cost must be positive")


@dataclass(frozen=True)
class DiskBullySpec:
    """DiskSPD-like disk bully (sequential, synchronous, mixed read/write)."""

    threads: int = 4
    read_fraction: float = 0.33
    request_bytes: int = 8 * 1024
    queue_depth: int = 1
    cpu_per_request: float = micros(20)
    memory_bytes: int = 512 * 1024 * 1024

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be a probability")
        if self.threads < 1 or self.queue_depth < 1:
            raise ConfigError("disk bully threads and queue depth must be >= 1")


@dataclass(frozen=True)
class HdfsSpec:
    """HDFS DataNode + client colocated on every IndexServe machine."""

    replication_bandwidth_limit: float = 20 * MB
    client_bandwidth_limit: float = 60 * MB
    request_bytes: int = 4 * 1024 * 1024
    cpu_fraction: float = 0.05
    memory_bytes: int = 2 * GIB

    def __post_init__(self) -> None:
        if self.replication_bandwidth_limit <= 0 or self.client_bandwidth_limit <= 0:
            raise ConfigError("HDFS bandwidth limits must be positive")
        if not 0.0 <= self.cpu_fraction <= 1.0:
            raise ConfigError("HDFS cpu_fraction must be in [0, 1]")


@dataclass(frozen=True)
class MlTrainingSpec:
    """Machine-learning training batch job used in the Figure 10 experiment."""

    threads: int = 40
    minibatch_cpu_cost: float = millis(8)
    minibatch_read_bytes: int = 8 * 1024 * 1024
    reads_per_minibatch: float = 0.1
    memory_bytes: int = 8 * GIB

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError("ml training needs at least one thread")


@dataclass(frozen=True)
class SecondaryJobSpec:
    """One named secondary job colocated on the machine.

    The singleton tenant fields of :class:`ExperimentSpec` (``cpu_bully``,
    ``disk_bully``, ``hdfs``, ``ml_training``) cover the paper's one-of-each
    experiments; production machines run arbitrary mixes, so additional
    secondaries are expressed as named jobs, each wrapping exactly one tenant
    spec.  Names must be unique per experiment — they label the job's OS
    processes, per-job random streams and the per-secondary result breakdown.
    """

    name: str
    cpu_bully: Optional[CpuBullySpec] = None
    disk_bully: Optional[DiskBullySpec] = None
    hdfs: Optional[HdfsSpec] = None
    ml_training: Optional[MlTrainingSpec] = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ConfigError("secondary job name must be non-empty and '/'-free")
        if len(self._set_specs()) != 1:
            raise ConfigError(
                f"secondary job {self.name!r} must wrap exactly one tenant spec"
            )

    def _set_specs(self) -> Tuple[Tuple[str, object], ...]:
        return tuple(
            (kind, spec)
            for kind, spec in (
                ("cpu_bully", self.cpu_bully),
                ("disk_bully", self.disk_bully),
                ("hdfs", self.hdfs),
                ("ml_training", self.ml_training),
            )
            if spec is not None
        )

    @property
    def kind(self) -> str:
        """Which tenant this job runs: 'cpu_bully', 'disk_bully', 'hdfs' or 'ml_training'."""
        return self._set_specs()[0][0]

    @property
    def tenant_spec(self):
        """The wrapped tenant spec."""
        return self._set_specs()[0][1]

    @property
    def memory_bytes(self) -> int:
        return self.tenant_spec.memory_bytes


# --------------------------------------------------------------------------- PerfIso
@dataclass(frozen=True)
class BlindIsolationSpec:
    """CPU blind isolation (Section 3.1)."""

    buffer_cores: int = 8
    min_secondary_cores: int = 0
    #: Maximum number of cores added/removed per controller update; ``0``
    #: means "adjust by the full measured difference" (the paper's behaviour).
    max_step: int = 0

    def __post_init__(self) -> None:
        if self.buffer_cores < 0:
            raise ConfigError("buffer_cores must be >= 0")
        if self.min_secondary_cores < 0:
            raise ConfigError("min_secondary_cores must be >= 0")
        if self.max_step < 0:
            raise ConfigError("max_step must be >= 0")


@dataclass(frozen=True)
class StaticCoreSpec:
    """Static core restriction (the 'CPU cores' alternative of Section 6.1.4)."""

    secondary_cores: int = 8

    def __post_init__(self) -> None:
        if self.secondary_cores < 0:
            raise ConfigError("secondary_cores must be >= 0")


@dataclass(frozen=True)
class CpuCycleSpec:
    """CPU cycle (rate) restriction (the 'CPU cycles' alternative)."""

    cpu_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_fraction <= 1.0:
            raise ConfigError("cpu_fraction must be in (0, 1]")


@dataclass(frozen=True)
class PidControlSpec:
    """PID controller on windowed-P99 error (a feedback challenger).

    The control error is the *relative* SLO slack ``(slo_p99 - p99) / slo_p99``
    over a sliding latency window, with the set point
    :attr:`PerfIsoSpec.slo_p99`: positive slack grows the secondary, an SLO
    breach shrinks it.  The output is a core delta, clamped to ``max_step``
    per poll and to the band ``[min_secondary_cores, total - reserve_cores]``.
    """

    #: Length of the sliding latency window the P99 is computed over (seconds).
    window: float = 0.25
    kp: float = 6.0
    ki: float = 1.0
    kd: float = 0.0
    #: Anti-windup clamp on the error integral (in relative-slack-seconds).
    integral_limit: float = 8.0
    #: Cores added/removed at most per controller update; ``0`` = unclamped.
    max_step: int = 2
    min_secondary_cores: int = 0
    #: Cores never handed to the secondary (the PID analogue of the buffer).
    reserve_cores: int = 2

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigError("pid latency window must be positive")
        if self.integral_limit < 0:
            raise ConfigError("pid integral_limit must be >= 0")
        if self.max_step < 0:
            raise ConfigError("pid max_step must be >= 0")
        if self.min_secondary_cores < 0:
            raise ConfigError("pid min_secondary_cores must be >= 0")
        if self.reserve_cores < 0:
            raise ConfigError("pid reserve_cores must be >= 0")


@dataclass(frozen=True)
class MpcControlSpec:
    """Model-predictive controller sized against the arrival forecast.

    At every poll the controller asks the arrival model for the exact peak
    offered rate over the next ``horizon`` seconds (defaulting to one poll
    interval) and reserves ``ceil(peak / qps_per_core) + headroom_cores``
    cores for the primary; the secondary gets the rest.
    """

    #: Primary serving capacity used to convert a QPS forecast into cores.
    #: The paper provisions the 48-core machine for a 4,000 QPS peak, i.e.
    #: ~83 QPS/core; the default keeps a little margin below that.
    qps_per_core: float = 80.0
    #: Extra cores reserved on top of the forecast-implied demand.
    headroom_cores: int = 2
    #: Forecast window in seconds; ``0`` means "one poll interval ahead".
    horizon: float = 0.0
    min_secondary_cores: int = 0

    def __post_init__(self) -> None:
        if self.qps_per_core <= 0:
            raise ConfigError("mpc qps_per_core must be positive")
        if self.headroom_cores < 0:
            raise ConfigError("mpc headroom_cores must be >= 0")
        if self.horizon < 0:
            raise ConfigError("mpc horizon must be >= 0")
        if self.min_secondary_cores < 0:
            raise ConfigError("mpc min_secondary_cores must be >= 0")


@dataclass(frozen=True)
class UtilizationTargetSpec:
    """Utilisation-target autoscaler (a classic-autoscaling challenger).

    Holds machine utilisation (busy cores / total) inside
    ``target_utilization ± deadband`` by stepping the secondary's core count
    by ``step_cores`` per poll, inside ``[min_secondary_cores,
    total - reserve_cores]``.
    """

    target_utilization: float = 0.85
    deadband: float = 0.05
    step_cores: int = 2
    min_secondary_cores: int = 0
    reserve_cores: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization < 1.0:
            raise ConfigError("target_utilization must be in (0, 1)")
        if not 0.0 <= self.deadband < min(
            self.target_utilization, 1.0 - self.target_utilization
        ):
            raise ConfigError(
                "deadband must be >= 0 and keep the band inside (0, 1)"
            )
        if self.step_cores < 1:
            raise ConfigError("step_cores must be >= 1")
        if self.min_secondary_cores < 0:
            raise ConfigError("utilization min_secondary_cores must be >= 0")
        if self.reserve_cores < 0:
            raise ConfigError("utilization reserve_cores must be >= 0")


@dataclass(frozen=True)
class OracleControlSpec:
    """Clairvoyant upper bound: reads the future arrival trace.

    Same capacity arithmetic as :class:`MpcControlSpec` but looking
    ``lookahead`` seconds into the *actual* future rate curve, so the
    secondary is pre-shrunk before a spike ever lands.  Unrealisable in
    production — it exists to bound how much any predictor could gain.
    """

    qps_per_core: float = 80.0
    headroom_cores: int = 1
    #: How far into the future the oracle reads (seconds).
    lookahead: float = 0.25
    min_secondary_cores: int = 0

    def __post_init__(self) -> None:
        if self.qps_per_core <= 0:
            raise ConfigError("oracle qps_per_core must be positive")
        if self.headroom_cores < 0:
            raise ConfigError("oracle headroom_cores must be >= 0")
        if self.lookahead <= 0:
            raise ConfigError("oracle lookahead must be positive")
        if self.min_secondary_cores < 0:
            raise ConfigError("oracle min_secondary_cores must be >= 0")


@dataclass(frozen=True)
class IoThrottleSpec:
    """Deficit-weighted-round-robin I/O throttling (Section 4.1)."""

    enabled: bool = True
    #: Weight per tenant class; higher weight means a larger share.
    weights: Tuple[Tuple[str, float], ...] = (("primary", 8.0), ("secondary", 1.0))
    #: Guaranteed minimum IOPS for the primary.
    primary_min_iops: float = 2000.0
    #: Hard caps applied to the secondary on the shared (HDD) volume.
    secondary_bandwidth_limit: float = 100 * MB
    secondary_iops_limit: float = 0.0  # 0 disables the IOPS cap
    #: Moving-average window used for the IOPS estimate (seconds).
    window: float = 1.0
    #: How often the throttler recomputes deficits and adjusts priorities.
    adjust_interval: float = 0.25

    def weight_map(self) -> Dict[str, float]:
        return dict(self.weights)

    def __post_init__(self) -> None:
        if self.window <= 0 or self.adjust_interval <= 0:
            raise ConfigError("IO throttle window and adjust interval must be positive")
        for name, weight in self.weights:
            if weight <= 0:
                raise ConfigError(f"IO weight for {name!r} must be positive")


@dataclass(frozen=True)
class MemoryGuardSpec:
    """Memory footprint guard (Section 3.2): kill the secondary under pressure."""

    enabled: bool = True
    #: Keep at least this much memory free for the primary and the OS.
    reserved_bytes: int = 4 * GIB
    check_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.reserved_bytes < 0:
            raise ConfigError("reserved_bytes must be >= 0")
        if self.check_interval <= 0:
            raise ConfigError("check_interval must be positive")


#: Every CPU policy by name, in showdown order: the paper's four ('blind',
#: 'static_cores', 'cpu_cycles', 'none') and the challenger controllers
#: ('pid', 'mpc', 'utilization', 'oracle').  Each name maps to the spec
#: class that configures it, and 'none' (no restriction) to ``None``.
CPU_POLICIES = {
    "blind": BlindIsolationSpec,
    "static_cores": StaticCoreSpec,
    "cpu_cycles": CpuCycleSpec,
    "none": None,
    "pid": PidControlSpec,
    "mpc": MpcControlSpec,
    "utilization": UtilizationTargetSpec,
    "oracle": OracleControlSpec,
}


@dataclass(frozen=True)
class PerfIsoSpec:
    """Top-level PerfIso service configuration (Section 4).

    ``cpu`` is the one CPU policy the machine runs, given by its spec: an
    instance of one of the classes in :data:`CPU_POLICIES`, or ``None`` for
    the unrestricted ``none`` policy.
    """

    cpu: Optional[object] = field(default_factory=BlindIsolationSpec)
    #: The served-latency objective: the PID policy's set point, and the SLO
    #: that telemetry reports every run against.
    slo_p99: float = millis(15)
    io_throttle: IoThrottleSpec = field(default_factory=IoThrottleSpec)
    memory_guard: MemoryGuardSpec = field(default_factory=MemoryGuardSpec)
    #: How often the controller polls the idle-core mask.
    poll_interval: float = millis(1)
    #: Whether the controller starts enabled (the "kill switch" of Section 4.2).
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.cpu is not None and type(self.cpu) not in CPU_POLICIES.values():
            raise ConfigError(
                "cpu must be None or a spec of one of the CPU policies "
                f"{tuple(CPU_POLICIES)}, got {type(self.cpu).__name__}"
            )
        if not self.slo_p99 > 0:
            raise ConfigError("slo_p99 must be positive")
        if not self.poll_interval > 0:
            raise ConfigError("poll_interval must be positive")


# --------------------------------------------------------------------------- workload
@dataclass(frozen=True)
class DiurnalSpec:
    """Sinusoidal day/night load swing (the Figure 10 production shape).

    The instantaneous rate is ``mid + amplitude * cos(2*pi * (t/period +
    phase_offset))`` floored at ``floor_qps``, where ``mid`` and ``amplitude``
    derive from the peak/trough pair.  ``phase_offset`` is a fraction of the
    period — rows serving different geographies peak at different times.  The
    fleet model's per-row diurnal curves are built from this spec, so the
    single-machine and fleet implementations cannot drift.
    """

    peak_qps: float = 4000.0
    trough_qps: float = 1600.0
    #: Length of one full cycle (seconds of simulated time).
    period: float = 3600.0
    #: Phase shift as a fraction of the period, in [0, 1).
    phase_offset: float = 0.0
    floor_qps: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.trough_qps < self.peak_qps:
            raise ConfigError("diurnal load requires 0 < trough_qps < peak_qps")
        if self.period <= 0:
            raise ConfigError("diurnal period must be positive")
        if not 0.0 <= self.phase_offset < 1.0:
            raise ConfigError("diurnal phase_offset must be in [0, 1)")
        if self.floor_qps <= 0:
            raise ConfigError("diurnal floor_qps must be positive")


@dataclass(frozen=True)
class BurstySpec:
    """Two-state Markov-modulated Poisson arrivals (normal <-> burst).

    The rate alternates between ``base_qps`` and ``burst_qps``; dwell times in
    each state are exponential with the given means.  The state path is drawn
    from the experiment's named ``"arrival-model"`` random stream, so a bursty
    workload is a pure function of the experiment seed and stays byte-identical
    at any worker count.
    """

    base_qps: float = 2000.0
    burst_qps: float = 6000.0
    #: Mean dwell time in the normal state (seconds).
    mean_normal_seconds: float = 4.0
    #: Mean dwell time in the burst state (seconds).
    mean_burst_seconds: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_qps < self.burst_qps:
            raise ConfigError("bursty load requires 0 < base_qps < burst_qps")
        if self.mean_normal_seconds <= 0 or self.mean_burst_seconds <= 0:
            raise ConfigError("bursty dwell-time means must be positive")

    @property
    def mean_qps(self) -> float:
        """The stationary mean rate of the two-state chain."""
        total = self.mean_normal_seconds + self.mean_burst_seconds
        return (
            self.base_qps * self.mean_normal_seconds
            + self.burst_qps * self.mean_burst_seconds
        ) / total


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A flash crowd: base load, a linear ramp to a spike, hold, then decay.

    Time zero is the start of the experiment (including warmup); the spike
    begins at ``start`` seconds, climbs linearly over ``ramp`` seconds to
    ``spike_qps``, holds for ``hold`` seconds and decays linearly back to the
    base over ``decay`` seconds.
    """

    base_qps: float = 2000.0
    spike_qps: float = 6000.0
    start: float = 4.0
    ramp: float = 0.5
    hold: float = 2.0
    decay: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_qps < self.spike_qps:
            raise ConfigError("flash crowd requires 0 < base_qps < spike_qps")
        if self.start < 0 or self.ramp < 0 or self.hold < 0 or self.decay < 0:
            raise ConfigError("flash crowd phase durations must all be >= 0")
        if self.ramp + self.hold + self.decay <= 0:
            raise ConfigError(
                "a flash crowd needs a non-zero spike (ramp + hold + decay > 0); "
                "a zero-width spike degenerates to the constant base rate"
            )

    @property
    def end(self) -> float:
        """When the load is back at the base rate."""
        return self.start + self.ramp + self.hold + self.decay


@dataclass(frozen=True)
class TraceSpec:
    """A replayable trace: uniformly-spaced buckets of offered QPS.

    The rate is piecewise-constant — bucket ``i`` covers simulated time
    ``[i * bucket_seconds, (i+1) * bucket_seconds)`` — and replay wraps
    cyclically past the end of the trace.  Traces are stored *inline* (a tuple
    of floats, not a file path) so experiment specs stay content-addressable:
    two specs replaying the same buckets hash identically no matter where the
    trace file lived.  Use :mod:`repro.config.traces` to load/save JSONL and
    CSV trace files, and ``python -m repro.workloads`` to synthesize them from
    the parametric models.
    """

    bucket_seconds: float
    qps: Tuple[float, ...]
    #: Free-form provenance label ("synthetic:diurnal", "prod-2017-w3", ...).
    source: str = "synthetic"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bucket_seconds) and self.bucket_seconds > 0):
            raise ConfigError("trace bucket_seconds must be positive and finite")
        if not self.qps:
            raise ConfigError("a trace needs at least one QPS bucket")
        for index, value in enumerate(self.qps):
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(
                    f"trace bucket {index} has invalid QPS {value!r} "
                    "(must be finite and >= 0)"
                )
        if not any(value > 0.0 for value in self.qps):
            raise ConfigError("a trace must have at least one non-zero bucket")

    @property
    def duration(self) -> float:
        """Length of one full pass over the trace (seconds)."""
        return self.bucket_seconds * len(self.qps)

    @property
    def mean_qps(self) -> float:
        return sum(self.qps) / len(self.qps)

    @property
    def peak_qps(self) -> float:
        return max(self.qps)


@dataclass(frozen=True)
class WorkloadSpec:
    """Open-loop query workload replayed against the primary (Section 5.3).

    Arrivals are Poisson.  With no arrival model set, their rate is the
    constant ``qps``.  Setting exactly one of ``diurnal``/``bursty``/
    ``flash_crowd``/``trace`` makes the rate time-varying: it follows the
    model and ``qps`` remains only the nominal label reported in results.
    """

    qps: float = 2000.0
    duration: float = 10.0
    warmup: float = 1.0
    #: Number of distinct queries in the synthetic trace.
    trace_queries: int = 50_000
    diurnal: Optional[DiurnalSpec] = None
    bursty: Optional[BurstySpec] = None
    flash_crowd: Optional[FlashCrowdSpec] = None
    trace: Optional[TraceSpec] = None

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ConfigError("qps must be positive")
        if self.duration <= 0 or self.warmup < 0:
            raise ConfigError("duration must be > 0 and warmup >= 0")
        models = self._set_models()
        if len(models) > 1:
            raise ConfigError(
                "a workload may set at most one arrival model, got "
                f"{[kind for kind, _ in models]}"
            )

    def _set_models(self) -> Tuple[Tuple[str, object], ...]:
        return tuple(
            (kind, spec)
            for kind, spec in (
                ("diurnal", self.diurnal),
                ("bursty", self.bursty),
                ("flash_crowd", self.flash_crowd),
                ("trace", self.trace),
            )
            if spec is not None
        )

    @property
    def arrival_kind(self) -> str:
        """'constant', or the name of the configured arrival model."""
        models = self._set_models()
        return models[0][0] if models else "constant"

    @property
    def arrival_model_spec(self):
        """The configured arrival-model spec, or ``None`` for constant rate."""
        models = self._set_models()
        return models[0][1] if models else None

    @property
    def total_time(self) -> float:
        return self.warmup + self.duration

    @property
    def mean_qps(self) -> float:
        """Time-averaged offered rate (used to size the synthetic query trace).

        For the flash crowd the excess above base is integrated exactly over
        the part of the spike that falls inside the experiment window, phase
        by phase (an experiment may end mid-ramp or mid-hold).
        """
        model = self.arrival_model_spec
        if model is None:
            return self.qps
        if isinstance(model, DiurnalSpec):
            # Closed-form integral of mid + A*cos(2*pi*(t/P + phi)) over
            # [0, total]: an 11 s window pinned at the trough of an hour-long
            # period must size for the trough, not the full-period mean.
            # (floor_qps is ignored here — it only binds for degenerate
            # troughs, and sizing is a heuristic.)
            total = self.total_time
            mid = (model.peak_qps + model.trough_qps) / 2.0
            amplitude = (model.peak_qps - model.trough_qps) / 2.0
            two_pi = 2.0 * math.pi
            swept = math.sin(two_pi * (total / model.period + model.phase_offset))
            start = math.sin(two_pi * model.phase_offset)
            return mid + amplitude * (swept - start) * model.period / (two_pi * total)
        if isinstance(model, FlashCrowdSpec):
            total = self.total_time
            # Seconds of each spike phase inside [0, total], walked in order.
            in_ramp = min(max(0.0, total - model.start), model.ramp)
            in_hold = min(max(0.0, total - model.start - model.ramp), model.hold)
            in_decay = min(
                max(0.0, total - model.start - model.ramp - model.hold), model.decay
            )
            # Spike-equivalent seconds: the ramp climbs linearly (integral
            # u^2/2r), the hold is flat, the decay falls linearly.
            spike_seconds = in_hold
            if model.ramp > 0.0:
                spike_seconds += in_ramp * in_ramp / (2.0 * model.ramp)
            if model.decay > 0.0:
                spike_seconds += in_decay * (1.0 - in_decay / (2.0 * model.decay))
            excess = (model.spike_qps - model.base_qps) * spike_seconds / total
            return model.base_qps + excess
        if isinstance(model, TraceSpec):
            # Average only the portion of the trace the window actually
            # replays (wrapping cyclically), not the whole file: a long
            # front-loaded trace otherwise mis-sizes the query pool.
            total = self.total_time
            bucket = model.bucket_seconds
            rates = model.qps
            whole = int(total // bucket)
            frac = total - whole * bucket
            cycles, rem = divmod(whole, len(rates))
            integral = (cycles * sum(rates) + sum(rates[:rem])) * bucket
            integral += rates[rem % len(rates)] * frac
            return integral / total
        return model.mean_qps


# --------------------------------------------------------------------------- cluster
@dataclass(frozen=True)
class ClusterSpec:
    """The 75-machine IndexServe cluster of Section 5.3 / Figure 3."""

    partitions: int = 22
    rows: int = 2
    tla_machines: int = 31
    network_hop_latency: float = micros(200)
    mla_aggregation_cost: float = micros(400)
    tla_aggregation_cost: float = micros(300)

    def __post_init__(self) -> None:
        if self.partitions < 1 or self.rows < 1 or self.tla_machines < 1:
            raise ConfigError("cluster dimensions must all be >= 1")

    @property
    def index_machines(self) -> int:
        return self.partitions * self.rows

    @property
    def total_machines(self) -> int:
        return self.index_machines + self.tla_machines


# --------------------------------------------------------------------------- faults
@dataclass(frozen=True)
class MachineFaultSpec:
    """Machine crash/restart episodes across a fleet.

    Each machine independently draws crash times from a Poisson process at
    ``crash_rate_per_hour`` and an exponential downtime with mean
    ``mean_downtime`` seconds, all from the named ``"faults"`` random stream
    keyed by ``(seed, group, machine index)`` — so the schedule is a pure
    function of the spec and byte-identical at any worker count or shard
    partition.
    """

    crash_rate_per_hour: float
    mean_downtime: float = 120.0
    #: Cap on crash episodes drawn per machine (keeps schedules bounded).
    max_crashes: int = 4

    def __post_init__(self) -> None:
        if not self.crash_rate_per_hour > 0:
            raise ConfigError("crash_rate_per_hour must be positive")
        if self.mean_downtime <= 0:
            raise ConfigError("mean_downtime must be positive")
        if self.max_crashes < 1:
            raise ConfigError("max_crashes must be >= 1")


@dataclass(frozen=True)
class DegradedCoreSpec:
    """Degraded/straggler cores: CPU work slows by ``slowdown`` over a window.

    On a single machine the whole core complex dispatches at ``1/slowdown``
    speed during ``[start, start + duration)``.  Across a fleet,
    ``fraction_of_machines`` of each group (chosen deterministically from the
    faults stream) straggle during the window; the rest run at full speed.
    """

    duration: float
    slowdown: float = 1.5
    start: float = 0.0
    fraction_of_machines: float = 0.1

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ConfigError("degraded-core window duration must be positive")
        if self.slowdown < 1.0:
            raise ConfigError("degraded-core slowdown must be >= 1.0")
        if self.start < 0:
            raise ConfigError("degraded-core window start must be >= 0")
        if not 0.0 < self.fraction_of_machines <= 1.0:
            raise ConfigError("fraction_of_machines must be in (0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class TelemetryFaultSpec:
    """Controller telemetry dropout or staleness over a window.

    During ``[start, start + duration)`` the controller's observation inputs
    (``windowed_p99`` and ``forecast_peak_qps``) either go ``"missing"``
    (read as ``None``, as if the metrics pipeline dropped the feed) or are
    ``"frozen"`` at the value last seen before the window opened (a stale
    cache that keeps serving).
    """

    duration: float
    mode: str = "missing"
    start: float = 0.0

    VALID_MODES = ("missing", "frozen")

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ConfigError("telemetry fault duration must be positive")
        if self.mode not in self.VALID_MODES:
            raise ConfigError(
                f"telemetry fault mode must be one of {self.VALID_MODES}, "
                f"got {self.mode!r}"
            )
        if self.start < 0:
            raise ConfigError("telemetry fault start must be >= 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ControllerCrashSpec:
    """Controller crash followed by recovery from its last checkpoint.

    On a single machine the fault injector checkpoints the PerfIso
    controller (``state_dict``) every ``checkpoint_interval`` seconds, stops
    it at ``at``, and ``recovery_delay`` seconds later starts it again and
    hands it the last checkpoint (``restore_state``).  In a fleet
    rollout the crash lands in whatever stage covers simulated time ``at``:
    that stage's guardrail digest is lost, the guardrail fails safe and the
    stage retries with backoff.
    """

    at: float
    recovery_delay: float = 0.05
    checkpoint_interval: float = 0.25

    def __post_init__(self) -> None:
        if not self.at > 0:
            raise ConfigError("controller crash time must be positive")
        if self.recovery_delay <= 0:
            raise ConfigError("controller recovery_delay must be positive")
        if self.checkpoint_interval <= 0:
            raise ConfigError("controller checkpoint_interval must be positive")


@dataclass(frozen=True)
class ConfigPushFaultSpec:
    """Transient configuration-push failures mid-rollout.

    Each store publish/rollback attempt independently fails with probability
    ``failure_rate`` (drawn from the faults stream, so the failure pattern is
    deterministic per spec), up to ``max_failures`` injected failures in
    total.  The rollout retries failed pushes with capped backoff.
    """

    failure_rate: float
    max_failures: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.failure_rate <= 1.0:
            raise ConfigError("config-push failure_rate must be in (0, 1]")
        if self.max_failures < 1:
            raise ConfigError("config-push max_failures must be >= 1")


@dataclass(frozen=True)
class FaultPlanSpec:
    """A deterministic fault timeline for one experiment or fleet run.

    Every sub-plan is optional, and a set sub-plan injects its fault; an
    empty plan is a no-op and produces byte-identical results to a spec with
    no fault plan at all.  Fault schedules draw exclusively from the named
    ``"faults"`` random stream, so enabling faults cannot perturb any other
    component's draws.
    """

    machines: Optional[MachineFaultSpec] = None
    degraded: Optional[DegradedCoreSpec] = None
    telemetry: Optional[TelemetryFaultSpec] = None
    controller_crash: Optional[ControllerCrashSpec] = None
    config_push: Optional[ConfigPushFaultSpec] = None

    @property
    def is_noop(self) -> bool:
        """True when no sub-plan is set."""
        return all(
            sub is None
            for sub in (
                self.machines,
                self.degraded,
                self.telemetry,
                self.controller_crash,
                self.config_push,
            )
        )


# --------------------------------------------------------------------------- fleet
@dataclass(frozen=True)
class MachineGroupSpec:
    """One homogeneous slice of the fleet.

    A production fleet is not 2,000 copies of one machine: rows differ in
    buffer-core configuration, in which batch workload Autopilot assigns to
    them, and in *when* their users are awake (per-row diurnal phase).  A
    group names one such slice; the fleet model calibrates each distinct
    group configuration once and scales it to ``machines`` instances.
    """

    name: str
    machines: int = 100
    buffer_cores: int = 8
    #: Which batch tenant is harvested onto this group's machines.
    secondary: str = "ml_training"
    #: Thread count for the secondary; ``0`` keeps the tenant's default.
    secondary_threads: int = 0
    peak_qps: float = 4000.0
    trough_qps: float = 1600.0
    #: Diurnal phase offset as a fraction of the period (rows serve different
    #: geographies, so their load peaks are shifted against each other).
    phase_offset: float = 0.0
    machine: MachineSpec = field(default_factory=MachineSpec)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ConfigError("machine group name must be non-empty and '/'-free")
        if self.machines < 1:
            raise ConfigError(f"group {self.name!r} needs at least one machine")
        if self.buffer_cores < 0:
            raise ConfigError(f"group {self.name!r} buffer_cores must be >= 0")
        if self.secondary not in SECONDARY_KINDS:
            raise ConfigError(
                f"group {self.name!r} secondary must be one of {SECONDARY_KINDS}, "
                f"got {self.secondary!r}"
            )
        if self.secondary_threads < 0:
            raise ConfigError(f"group {self.name!r} secondary_threads must be >= 0")
        if not 0.0 < self.trough_qps < self.peak_qps:
            raise ConfigError(
                f"group {self.name!r} requires 0 < trough_qps < peak_qps"
            )
        if not 0.0 <= self.phase_offset < 1.0:
            raise ConfigError(f"group {self.name!r} phase_offset must be in [0, 1)")


@dataclass(frozen=True)
class PlacementSpec:
    """How batch demand is bin-packed onto reclaimable fleet capacity.

    ``job_cores`` pins an explicit list of job sizes — including ``()``,
    which means *no batch demand at all* (a baseline-only fleet).  Only the
    default ``None`` ("unset") makes the fleet harness derive a deterministic
    job list targeting ``demand_fraction`` of the fleet's estimated
    reclaimable cores, in jobs of ``job_cores_each``.
    """

    strategy: str = "first_fit"
    job_cores: Optional[Tuple[int, ...]] = None
    demand_fraction: float = 0.7
    job_cores_each: int = 6

    VALID_STRATEGIES = ("first_fit", "best_fit", "worst_fit")

    def __post_init__(self) -> None:
        if self.strategy not in self.VALID_STRATEGIES:
            raise ConfigError(
                f"placement strategy must be one of {self.VALID_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.job_cores is not None and any(cores < 1 for cores in self.job_cores):
            raise ConfigError("every placement job must demand at least one core")
        if not 0.0 < self.demand_fraction <= 1.0:
            raise ConfigError("demand_fraction must be in (0, 1]")
        if self.job_cores_each < 1:
            raise ConfigError("job_cores_each must be >= 1")


@dataclass(frozen=True)
class RolloutSpec:
    """A staged (canary -> wave -> fleet) PerfIso rollout with SLO guardrails.

    ``stage_fractions`` are cumulative fractions of each group enabled per
    stage; the guardrail halts the rollout (and rolls the configuration back)
    when any group's P99 under colocation exceeds
    ``guardrail_p99_multiplier`` times its baseline P99.
    """

    stage_fractions: Tuple[float, ...] = (0.02, 0.25, 1.0)
    #: CPU policy the rollout ships ('none' models an unprotected rollout).
    target_policy: str = "blind"
    guardrail_p99_multiplier: float = 1.5
    #: Buckets of pre-rollout baseline measurement (the guardrail reference).
    bake_buckets: int = 4
    #: Buckets each stage must hold before the guardrail verdict.
    stage_buckets: int = 4
    #: Churn hardening: attempts per stage before the rollout gives up.  A
    #: stage whose guardrail digest is missing or stale (controller crash,
    #: machines lost mid-measurement) fails safe — it does not advance — and
    #: is retried up to ``stage_attempts - 1`` more times.
    stage_attempts: int = 3
    #: Backoff before a stage retry, in buckets; doubles per retry.
    retry_backoff_buckets: int = 1
    #: Cap on the per-retry backoff, in buckets.
    retry_backoff_cap_buckets: int = 8
    #: Attempts per configuration push before a transient failure is fatal.
    push_attempts: int = 3

    def __post_init__(self) -> None:
        if not self.stage_fractions:
            raise ConfigError("rollout needs at least one stage")
        previous = 0.0
        for fraction in self.stage_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigError("stage fractions must be in (0, 1]")
            if fraction < previous:
                raise ConfigError("stage fractions must be non-decreasing")
            previous = fraction
        if self.stage_fractions[-1] != 1.0:
            raise ConfigError("the final rollout stage must cover the whole fleet")
        if self.target_policy not in CPU_POLICIES:
            raise ConfigError(
                f"target_policy must be one of {tuple(CPU_POLICIES)}, "
                f"got {self.target_policy!r}"
            )
        if self.guardrail_p99_multiplier < 1.0:
            raise ConfigError("guardrail_p99_multiplier must be >= 1.0")
        if self.bake_buckets < 1 or self.stage_buckets < 1:
            raise ConfigError("bake_buckets and stage_buckets must be >= 1")
        if self.stage_attempts < 1:
            raise ConfigError("stage_attempts must be >= 1")
        if self.retry_backoff_buckets < 0:
            raise ConfigError("retry_backoff_buckets must be >= 0")
        if self.retry_backoff_cap_buckets < 1:
            raise ConfigError("retry_backoff_cap_buckets must be >= 1")
        if self.push_attempts < 1:
            raise ConfigError("push_attempts must be >= 1")


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to simulate operating PerfIso across a fleet."""

    groups: Tuple[MachineGroupSpec, ...]
    rollout: RolloutSpec = field(default_factory=RolloutSpec)
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    #: Wall-clock length of one accounting bucket (seconds).
    bucket_seconds: float = 60.0
    #: Period of the per-group diurnal load curves (seconds).
    diurnal_period: float = 3600.0
    #: Latency samples drawn per machine per bucket.
    samples_per_machine_bucket: int = 32
    #: Floor on colocated samples drawn per group per bucket: canary stages
    #: have few colocated machines, and a P99 estimated from a handful of
    #: draws is biased upward against the fleet-sized baseline reference
    #: (a real canary pipeline keeps every query from its canary machines).
    min_colocated_samples_per_bucket: int = 2048
    #: Load points of the single-machine calibration runs.
    calibration_qps: Tuple[float, ...] = (1500.0, 3500.0)
    calibration_duration: float = 1.0
    calibration_warmup: float = 0.2
    #: Machines per execution shard (fixed, so results never depend on the
    #: worker count).
    shard_machines: int = 256
    #: Hyperscale sampling: fraction of each machine group that runs the full
    #: per-machine inverse-CDF draw.  The default ``1.0`` is *exact mode* —
    #: every machine is drawn individually, byte-identical at any worker
    #: count.  Below 1.0 only a deterministically chosen sample of machines
    #: (per group and per colocation class) is drawn; the rest contribute
    #: their closed-form expected histogram from the calibrated row model.
    sample_fraction: float = 1.0
    #: Floor on sampled machines per group per colocation class, so canary
    #: classes and small groups are always fully drawn even at tiny
    #: ``sample_fraction``.
    min_sampled_machines: int = 256
    seed: int = 7
    #: Optional deterministic fault plan.
    faults: Optional[FaultPlanSpec] = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigError("a fleet needs at least one machine group")
        if self.bucket_seconds <= 0 or self.diurnal_period <= 0:
            raise ConfigError("bucket_seconds and diurnal_period must be positive")
        if self.samples_per_machine_bucket < 1:
            raise ConfigError("samples_per_machine_bucket must be >= 1")
        if self.min_colocated_samples_per_bucket < 1:
            raise ConfigError("min_colocated_samples_per_bucket must be >= 1")
        if len(self.calibration_qps) < 2:
            raise ConfigError("need at least two calibration load points")
        if any(qps <= 0 for qps in self.calibration_qps):
            raise ConfigError("calibration load points must be positive")
        if list(self.calibration_qps) != sorted(set(self.calibration_qps)):
            raise ConfigError("calibration load points must be strictly increasing")
        if self.calibration_duration <= 0 or self.calibration_warmup < 0:
            raise ConfigError("calibration duration must be > 0 and warmup >= 0")
        if self.shard_machines < 1:
            raise ConfigError("shard_machines must be >= 1")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError("sample_fraction must be in (0, 1]")
        if self.min_sampled_machines < 1:
            raise ConfigError("min_sampled_machines must be >= 1")

    @property
    def total_machines(self) -> int:
        return sum(group.machines for group in self.groups)

    def replace(self, **changes) -> "FleetSpec":
        """Return a copy with ``changes`` applied (thin dataclasses.replace wrapper)."""
        return dataclasses.replace(self, **changes)


# --------------------------------------------------------------------------- experiment
@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one single-machine colocation experiment."""

    machine: MachineSpec = field(default_factory=MachineSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    indexserve: IndexServeSpec = field(default_factory=IndexServeSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    perfiso: Optional[PerfIsoSpec] = None
    cpu_bully: Optional[CpuBullySpec] = None
    disk_bully: Optional[DiskBullySpec] = None
    hdfs: Optional[HdfsSpec] = None
    ml_training: Optional[MlTrainingSpec] = None
    #: Additional named secondaries beyond the singleton fields above, so one
    #: machine can co-locate arbitrary mixes (e.g. two CPU bullies of
    #: different sizes, or CPU bully + disk bully + ML training at once).
    extra_secondaries: Tuple[SecondaryJobSpec, ...] = ()
    seed: int = 1
    #: Optional deterministic fault plan.
    faults: Optional[FaultPlanSpec] = None

    def replace(self, **changes) -> "ExperimentSpec":
        """Return a copy with ``changes`` applied (thin dataclasses.replace wrapper)."""
        return dataclasses.replace(self, **changes)

    def secondary_jobs(self) -> Tuple[SecondaryJobSpec, ...]:
        """Every secondary as a named job, singleton fields first.

        The singleton fields keep their historical tenant names so existing
        specs simulate bit-identically (random streams are keyed by name).
        """
        jobs = []
        for name, kind, spec in (
            ("cpu-bully", "cpu_bully", self.cpu_bully),
            ("disk-bully", "disk_bully", self.disk_bully),
            ("hdfs", "hdfs", self.hdfs),
            ("ml-training", "ml_training", self.ml_training),
        ):
            if spec is not None:
                jobs.append(SecondaryJobSpec(name, **{kind: spec}))
        jobs.extend(self.extra_secondaries)
        return tuple(jobs)


@dataclass(frozen=True)
class ClusterScenario:
    """Configuration of one cluster experiment.

    ``node`` configures every IndexServe machine: its primary, secondaries
    and PerfIso, its per-machine load ``node.workload.qps`` (so the
    cluster's offered load is that times ``cluster.rows``), and the run's
    duration, warm-up and seed.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    node: ExperimentSpec = field(default_factory=ExperimentSpec)

    @property
    def seed(self) -> int:
        """The run's seed, which the node spec carries."""
        return self.node.seed


# --------------------------------------------------------------------------- campaign
@dataclass(frozen=True)
class CampaignSpec:
    """A multi-seed replicate sweep of one registered scenario.

    The campaign layer (:mod:`repro.reporting.campaign`) runs ``replicates``
    executions of ``scenario``, each under a seed derived deterministically
    from ``base_seed`` (replicate 0 *is* ``base_seed``, so the historical
    single-seed run is the first replicate and is served from the result
    cache when it was ever computed before), then reports per-metric
    mean/stddev/95% CI instead of single-seed point estimates.

    ``grid`` optionally overrides the scenario's axis grids, exactly like the
    matrix CLI's ``--grid``; ``qps``/``duration``/``warmup`` are the common
    builder overrides and are forwarded only where the builder accepts them.
    """

    scenario: str
    replicates: int = 5
    base_seed: int = 1
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    qps: Optional[float] = None
    duration: Optional[float] = None
    warmup: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.scenario or not isinstance(self.scenario, str):
            raise ConfigError("a campaign needs a non-empty scenario name")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        for axis, values in self.grid:
            if not axis or not isinstance(axis, str):
                raise ConfigError("campaign grid axes must be non-empty strings")
            if not values:
                raise ConfigError(f"campaign grid axis {axis!r} has no values")
        if self.qps is not None and self.qps <= 0:
            raise ConfigError("campaign qps override must be positive")
        if self.duration is not None and self.duration <= 0:
            raise ConfigError("campaign duration override must be positive")
        if self.warmup is not None and self.warmup < 0:
            raise ConfigError("campaign warmup override must be >= 0")

    def replace(self, **changes) -> "CampaignSpec":
        """Return a copy with ``changes`` applied (thin dataclasses.replace wrapper)."""
        return dataclasses.replace(self, **changes)
