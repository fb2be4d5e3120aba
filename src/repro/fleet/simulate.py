"""Sharded execution of a fleet spec: bake, staged rollout, accounting.

The simulation composes the other fleet modules:

1. :class:`~repro.fleet.model.FleetModel` calibrates every machine group
   through the shared experiment runner (content-addressed, so repeat runs
   and overlapping fleets are cache hits);
2. the placement scheduler packs the batch queue (an array of job sizes)
   onto the stage's enabled machines under the calibrated reclaimable-
   capacity estimates, and hands back each machine's placed cores;
3. machine groups are cut into fixed-size shards and fanned out through
   ``ExperimentRunner.map`` — each shard carries slices of its group's
   per-machine arrays (placed cores, sampled positions), draws its machines'
   latencies by inverse-CDF sampling and returns one *count block* over the
   digest grid (baseline and colocated, per bucket, trimmed to the cells
   the shard occupies) with its sums and maxima, never raw samples.  The
   parent adds the blocks up in task order and builds one digest per group,
   mode and bucket.  Shards are recomputed on every run: hashing a shard
   task into a cache key costs more than sampling the shard.  The run is
   one runner scope, so calibration and every stage share one worker pool;
4. the staged rollout engine advances canary -> wave -> fleet, halting and
   rolling the configuration store back on a guardrail breach.

Everything downstream of the spec is deterministic: shard boundaries and RNG
seeds depend only on the spec, so serial runs, N-worker runs and repeats on
cached calibrations produce byte-identical results.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.autopilot import ConfigStore
from ..config.schema import FaultPlanSpec, FleetSpec, PerfIsoSpec
from ..config.validation import validate_fleet
from ..errors import ExperimentError
from ..faults.fleet import FaultyConfigStore, FleetFaultTimeline, ShardFaultPlan
from ..metrics.latency import LatencyDigest
from ..simulation.randomness import stable_seed
from ..units import to_millis
from .accounting import FleetResult, StageAccount
from .model import (
    BASELINE,
    COLOCATED,
    FleetModel,
    GroupCalibration,
    ModeCalibration,
    blend_curve,
    closed_form_histogram,
    mode_curve_matrix,
    mode_scalars,
    quantile_grid,
    target_perfiso,
)
from .placement import plan_placement
from .rollout import StagedRollout

__all__ = [
    "FleetShardTask",
    "FleetShardResult",
    "FleetSimulation",
    "build_demands",
    "sampled_positions",
]

#: Per-machine multiplicative latency skew (hardware generations, daemons).
MACHINE_SKEW_SIGMA = 0.03


@dataclass(frozen=True)
class FleetShardTask:
    """One shard of one group for one stage — the unit of fan-out."""

    stage: str
    group: str
    shard_index: int
    seed: int
    logical_cores: int
    #: Per-class sampling rates.  Either class may be raised above the spec
    #: rate by the per-bucket sample floor so small canary (colocated) or
    #: small reference (baseline) classes still yield a stable P99.
    samples_per_machine: int
    colocated_samples_per_machine: int
    bucket_seconds: float
    loads: Tuple[float, ...]
    #: Per machine in the shard: cores of placed batch demand (0 = baseline),
    #: a slice of the group's per-machine array.
    placed_cores: np.ndarray
    baseline: ModeCalibration
    colocated: ModeCalibration
    #: Hyperscale sampling: sorted shard-relative indices of the machines
    #: that run the full per-machine inverse-CDF draw.  ``None`` (exact mode)
    #: draws every machine; any other value makes the remaining machines
    #: contribute their closed-form expected histogram instead.
    sampled: Optional[np.ndarray] = None
    #: Fault timeline for this shard's machines over this task's buckets
    #: (``None`` = healthy).
    faults: Optional[ShardFaultPlan] = None


@dataclass
class FleetShardResult:
    """One shard's latency counts, as one block, plus exact accounting tallies.

    ``counts[mode, bucket]`` (mode 0 is baseline, 1 colocated) holds cells
    ``first_cell`` to ``first_cell + span`` of that mode-bucket's
    :class:`~repro.metrics.latency.LatencyDigest` count vector.  The span
    covers every cell the shard occupies, so every cell outside it is zero;
    a shard with no samples has span 0.  ``sums`` and ``maxima`` are the
    matching sample sums and maxima, each folded from its contributions by
    :meth:`~repro.metrics.latency.LatencyDigest.add_counts`'s rule (a
    contribution with no counts adds nothing).
    """

    group: str
    stage: str
    shard_index: int
    machines: int
    first_cell: int
    #: int64, shaped ``(2, buckets, span)``.
    counts: np.ndarray
    #: float64, shaped ``(2, buckets)``.
    sums: np.ndarray
    #: float64, shaped ``(2, buckets)``.
    maxima: np.ndarray
    reclaimed_core_hours: float
    #: Machine-hours of batch work completed, normalised to one machine
    #: running its secondary at the full calibrated rate for one hour (tenant
    #: progress units differ per kind, so raw progress cannot be summed).
    batch_machine_hours: float


def _simulate_shard(task: FleetShardTask) -> FleetShardResult:
    """Worker entry point: sample one shard's machines across the buckets.

    The per-machine-bucket math is vectorised over the whole
    ``(buckets, machines, samples)`` block: every uniform for the shard is
    drawn in one call (in the exact stream order the historical per-bucket
    loop consumed, so exact mode stays byte-identical to it), inverse-CDF
    mapped per bucket, then binned into one ``(2, buckets, cells)`` count
    block over the :class:`~repro.metrics.latency.LatencyDigest` grid
    through one batched ``searchsorted``/``bincount`` pass per mode.  The
    result carries only the block's occupied cells.

    In sampled (hyperscale) mode only ``task.sampled`` machines are drawn;
    the rest contribute :func:`~repro.fleet.model.closed_form_histogram`
    expected counts from the calibrated row model, which a worker computes
    once per distinct curve and quota and then reuses for its later shards.

    A fault plan (``task.faults``) is folded in *after* the main draw, so the
    uniform stream layout — and therefore every healthy machine's samples —
    is identical with and without faults: down machines' samples are excluded
    from the per-bucket counts (and the closed-form totals count only up
    machines), degraded machines' samples are scaled by the slowdown during
    the degraded buckets (unsampled degraded machines contribute the closed
    form of the slowed curve), and down machines earn no batch capacity.

    Each contribution's sum and maximum fold into ``sums`` and ``maxima`` in
    the order a digest's :meth:`~repro.metrics.latency.LatencyDigest.add_counts`
    calls would take them (drawn samples, then the closed form), and only
    when its counts are non-zero, so a digest rebuilt from one row is bit
    for bit the digest the same contributions would have built.
    """
    machines = len(task.placed_cores)
    buckets = len(task.loads)
    rng = np.random.default_rng(
        stable_seed("fleet-shard", task.seed, task.group, task.stage, task.shard_index)
    )
    skew = rng.lognormal(mean=0.0, sigma=MACHINE_SKEW_SIGMA, size=machines)
    placed = np.asarray(task.placed_cores, dtype=np.float64)
    colocated_all = np.flatnonzero(placed > 0)
    baseline_all = np.flatnonzero(placed == 0)
    if task.sampled is None:
        baseline_index, colocated_index = baseline_all, colocated_all
    else:
        member = np.zeros(machines, dtype=bool)
        member[np.asarray(task.sampled, dtype=np.intp)] = True
        baseline_index = baseline_all[member[baseline_all]]
        colocated_index = colocated_all[member[colocated_all]]
    grid = quantile_grid()
    prototype = LatencyDigest()
    edges = prototype.edges
    cells = prototype.counts_size

    modes = (
        (task.baseline, baseline_index, task.samples_per_machine, baseline_all),
        (
            task.colocated,
            colocated_index,
            task.colocated_samples_per_machine,
            colocated_all,
        ),
    )
    faults = task.faults
    if faults is not None:
        down_arrays = [np.asarray(faults.down[b], dtype=np.intp) for b in range(buckets)]
        degraded_array = np.asarray(faults.degraded, dtype=np.intp)
        degraded_bucket_set = frozenset(faults.degraded_buckets)
        any_down = any(faults.down)
    # Per-bucket blended quantile curves, hoisted out of the sampling math;
    # each mode's calibration tuples convert to an array once, not per bucket.
    bucket_curves = []
    for calibration, _, _, _ in modes:
        matrix = mode_curve_matrix(calibration)
        bucket_curves.append([blend_curve(matrix, calibration, qps) for qps in task.loads])

    # One flat draw covers every (bucket, mode, machine, sample) uniform; the
    # layout below slices it back bucket-major, baseline before colocated —
    # the order the per-bucket loop consumed the stream in.
    draw_width = sum(index.size * per for _, index, per, _ in modes)
    flat = rng.random(buckets * draw_width).reshape(buckets, draw_width)
    split = modes[0][1].size * modes[0][2]
    mode_uniforms = (flat[:, :split], flat[:, split:])

    counts = np.zeros((2, buckets, cells), dtype=np.int64)
    sums = np.zeros((2, buckets), dtype=np.float64)
    maxima = np.zeros((2, buckets), dtype=np.float64)
    for which, (calibration, index, per_machine, class_all) in enumerate(modes):
        curves = bucket_curves[which]
        drawn = index.size
        if drawn:
            samples = np.empty((buckets, drawn, per_machine), dtype=np.float64)
            uniforms = mode_uniforms[which].reshape(buckets, drawn, per_machine)
            for bucket in range(buckets):
                samples[bucket] = np.interp(uniforms[bucket], grid, curves[bucket])
            samples *= skew[index][None, :, None]
            if faults is not None and degraded_array.size and degraded_bucket_set:
                straggler_rows = np.flatnonzero(np.isin(index, degraded_array))
                if straggler_rows.size:
                    for bucket in faults.degraded_buckets:
                        samples[bucket, straggler_rows, :] *= faults.slowdown
            if faults is None or not any_down:
                block = samples.reshape(buckets, -1)
                indices = np.searchsorted(edges, block, side="right")
                offsets = (np.arange(buckets) * cells)[:, None]
                counts[which] = np.bincount(
                    (indices + offsets).ravel(), minlength=buckets * cells
                ).reshape(buckets, cells)
                sums[which] += block.sum(axis=1)
                np.maximum(maxima[which], block.max(axis=1), out=maxima[which])
            else:
                # Crash episodes: bin per bucket so each bucket's down
                # machines contribute nothing to its counts.
                for bucket in range(buckets):
                    keep = np.ones(drawn, dtype=bool)
                    keep[np.flatnonzero(np.isin(index, down_arrays[bucket]))] = False
                    block = samples[bucket][keep].ravel()
                    if block.size:
                        counts[which, bucket] = np.bincount(
                            np.searchsorted(edges, block, side="right"), minlength=cells
                        )
                        sums[which, bucket] += block.sum()
                        maxima[which, bucket] = max(maxima[which, bucket], block.max())
        unsampled = class_all.size - drawn
        if not unsampled:
            continue
        if faults is None:
            rows, totals, peaks = zip(
                *(closed_form_histogram(curve, edges, unsampled * per_machine) for curve in curves)
            )
            counts[which] += np.stack(rows)
            sums[which] += totals
            np.maximum(maxima[which], peaks, out=maxima[which])
            continue
        unsampled_positions = np.setdiff1d(class_all, index)
        for bucket in range(buckets):
            # Closed-form correction: only *up* unsampled machines
            # contribute, degraded ones through the slowed curve.
            up = unsampled_positions[~np.isin(unsampled_positions, down_arrays[bucket])]
            straggling = (
                int(np.isin(up, degraded_array).sum()) if bucket in degraded_bucket_set else 0
            )
            for curve, quota in (
                (curves[bucket], up.size - straggling),
                (curves[bucket] * faults.slowdown, straggling),
            ):
                if quota:
                    row, total, peak = closed_form_histogram(curve, edges, quota * per_machine)
                    counts[which, bucket] += row
                    sums[which, bucket] += total
                    maxima[which, bucket] = max(maxima[which, bucket], peak)

    # The result carries only the occupied cells.
    occupied = np.flatnonzero(counts.any(axis=(0, 1)))
    first_cell = int(occupied[0]) if occupied.size else 0
    stop_cell = int(occupied[-1]) + 1 if occupied.size else 0
    counts = np.ascontiguousarray(counts[:, :, first_cell:stop_cell])
    if np.any(counts < 0) or np.any(maxima < 0.0):
        raise ExperimentError(
            f"shard {task.group}/{task.stage}/{task.shard_index} binned a negative "
            "count or latency"
        )

    # Capacity accounting is exact for every machine regardless of sampling:
    # it depends only on placed cores and the calibrated CPU fractions.
    reclaimed = 0.0
    progress = 0.0
    if colocated_all.size:
        for bucket, qps in enumerate(task.loads):
            _, secondary_cpu, _ = mode_scalars(task.colocated, qps)
            granted = secondary_cpu * task.logical_cores
            active = colocated_all
            if faults is not None and down_arrays[bucket].size:
                # A machine down for the bucket reclaims nothing; its batch
                # work is simply lost (no failover model at this tier).
                active = colocated_all[~np.isin(colocated_all, down_arrays[bucket])]
            effective = np.minimum(placed[active], granted)
            reclaimed += float(effective.sum()) * task.bucket_seconds / 3600.0
            if granted > 0.0:
                progress += float((effective / granted).sum()) * task.bucket_seconds / 3600.0

    return FleetShardResult(
        group=task.group,
        stage=task.stage,
        shard_index=task.shard_index,
        machines=machines,
        first_cell=first_cell,
        counts=counts,
        sums=sums,
        maxima=maxima,
        reclaimed_core_hours=reclaimed,
        batch_machine_hours=progress,
    )


def _merge_shards(
    shards: Sequence[FleetShardResult], groups: Sequence[str], buckets: int
) -> Dict[str, Dict[str, List[LatencyDigest]]]:
    """Merge shard results, in task order, into one digest per group, mode
    and bucket.

    Each shard adds into its group's totals with one slice add per array:
    its sums add in task order, as digest merges would, and its maxima fold
    in with ``np.maximum``.  Only the merged rows become digests, each
    through :meth:`~repro.metrics.latency.LatencyDigest.add_counts`, which
    validates it.
    """
    cells = LatencyDigest().counts_size
    totals = {
        group: (
            np.zeros((2, buckets, cells), dtype=np.int64),
            np.zeros((2, buckets), dtype=np.float64),
            np.zeros((2, buckets), dtype=np.float64),
        )
        for group in groups
    }
    for shard in shards:
        counts, sums, maxima = totals[shard.group]
        stop_cell = shard.first_cell + shard.counts.shape[2]
        counts[:, :, shard.first_cell : stop_cell] += shard.counts
        sums += shard.sums
        np.maximum(maxima, shard.maxima, out=maxima)
    merged: Dict[str, Dict[str, List[LatencyDigest]]] = {}
    for group, (counts, sums, maxima) in totals.items():
        merged[group] = {}
        for which, mode in enumerate((BASELINE, COLOCATED)):
            digests = []
            for bucket in range(buckets):
                digest = LatencyDigest()
                digest.add_counts(counts[which, bucket], sums[which, bucket], maxima[which, bucket])
                digests.append(digest)
            merged[group][mode] = digests
    return merged


def build_demands(spec: FleetSpec, calibrations: Dict[str, GroupCalibration]) -> np.ndarray:
    """The batch queue awaiting placement, as an int64 array of job sizes.

    Explicit ``placement.job_cores`` wins — including ``()``, which means a
    deliberately empty queue (a baseline-only fleet).  Only the unset default
    (``None``) targets ``demand_fraction`` of the fleet's estimated
    reclaimable cores in jobs of ``job_cores_each``.
    """
    if spec.placement.job_cores is not None:
        return np.array(spec.placement.job_cores, dtype=np.int64)
    total_reclaimable = sum(
        group.machines * calibrations[group.name].reclaimable_cores(group.buffer_cores)
        for group in spec.groups
    )
    target = int(total_reclaimable * spec.placement.demand_fraction)
    each = spec.placement.job_cores_each
    return np.full(target // each, each, dtype=np.int64)


def sampled_positions(spec: FleetSpec, placed_cores: np.ndarray) -> Optional[np.ndarray]:
    """The sorted positions of one group's machines that run the full
    inverse-CDF draw in sampled mode (``None`` in exact mode = everyone).

    ``placed_cores`` holds the group's placed cores per machine position.
    Machines are picked evenly strided *per colocation class* (baseline vs
    colocated), so a small canary class is always fully drawn no matter how
    aggressive ``sample_fraction`` is, and the choice depends only on the
    spec and the placement plan — never on the worker count.
    """
    if spec.sample_fraction >= 1.0:
        return None
    chosen = []
    for positions in (np.flatnonzero(placed_cores == 0), np.flatnonzero(placed_cores > 0)):
        count = positions.size
        wanted = max(
            math.ceil(spec.sample_fraction * count), min(spec.min_sampled_machines, count)
        )
        if wanted >= count:
            chosen.append(positions)
        else:
            picks = np.unique(np.round(np.linspace(0, count - 1, wanted)).astype(np.intp))
            chosen.append(positions[picks])
    return np.sort(np.concatenate(chosen))


class FleetSimulation:
    """Operates one fleet spec end to end and returns a :class:`FleetResult`.

    ``telemetry`` (a :class:`~repro.telemetry.stream.TelemetrySession`) makes
    the rollout observable while it runs: per-bucket fleet snapshots (offered
    vs served QPS, occupancy, idle buffer, P99 vs guardrail) plus spans
    around every rollout stage and shard fan-out.  The fleet tier is
    analytic, so snapshots are derived in this process from the merged
    digests — the shard fan-out itself is untouched and results are
    byte-identical with telemetry on or off.
    """

    def __init__(self, spec: FleetSpec, runner=None, telemetry=None) -> None:
        validate_fleet(spec)
        self._spec = spec
        self._runner = runner
        self._telemetry = telemetry
        self.config_store = ConfigStore()
        self.rollout: Optional[StagedRollout] = None
        self.fault_timeline: Optional[FleetFaultTimeline] = None

    # ---------------------------------------------------------------- wiring
    def _config_entries(self) -> Dict[str, Tuple[PerfIsoSpec, PerfIsoSpec]]:
        """Per group: the pre-rollout (disabled) and target PerfIso configs."""
        entries: Dict[str, Tuple[PerfIsoSpec, PerfIsoSpec]] = {}
        for group in self._spec.groups:
            baseline = PerfIsoSpec(enabled=False)
            target = target_perfiso(self._spec.rollout.target_policy, group)
            entries[f"perfiso-{group.name}.json"] = (baseline, target)
        return entries

    # -------------------------------------------------------------- execution
    def run(self) -> FleetResult:
        from ..runtime.runner import default_runner

        runner = self._runner if self._runner is not None else default_runner()
        # One worker pool serves calibration and every stage's shards, and
        # its workers are joined before the run returns or raises.
        with runner.scope():
            return self._operate(runner)

    def _operate(self, runner) -> FleetResult:
        spec = self._spec
        model = FleetModel(spec)
        calibrations = model.calibrate(runner)
        demands = build_demands(spec, calibrations)

        # ---------------------------------------------------- fault timeline
        # An unset sub-plan leaves its path below untouched (no timeline, no
        # store wrapper, no pending crash), so an absent or empty plan is
        # byte-identical to a spec with no fault plan at all.
        fault_plan = spec.faults if spec.faults is not None else FaultPlanSpec()
        timeline: Optional[FleetFaultTimeline] = None
        if fault_plan.machines is not None or fault_plan.degraded is not None:
            timeline = FleetFaultTimeline(fault_plan, spec)
        self.fault_timeline = timeline
        store = self.config_store
        if fault_plan.config_push is not None:
            store = FaultyConfigStore(store, fault_plan.config_push, seed=spec.seed)
        crash_spec = fault_plan.controller_crash
        crash_pending = crash_spec is not None

        rollout = StagedRollout(store, spec.rollout, self._config_entries())
        self.rollout = rollout
        rollout.begin()

        bucket_cursor = 0
        telemetry = self._telemetry
        tracer = None
        if telemetry is not None:
            # The analytic tier's "now" is the bucket cursor in simulated
            # seconds; spans and snapshots share it.
            tracer = telemetry.tracer(lambda: bucket_cursor * spec.bucket_seconds)
        result = FleetResult(
            machines=spec.total_machines,
            groups=len(spec.groups),
            status="completed",
            stages_completed=0,
            stages_total=len(spec.rollout.stage_fractions),
            placement_strategy=spec.placement.strategy,
            target_policy=spec.rollout.target_policy,
        )

        def run_buckets(
            stage: str, buckets: int, placed: Dict[str, np.ndarray]
        ) -> Tuple[Dict[str, Dict[str, List[LatencyDigest]]], float, float]:
            """Fan one stage's shards out and merge their counts per bucket.

            ``placed`` maps each group to its placed cores per machine
            position; every shard task carries slices of that array and of
            the group's sampled positions.
            """
            nonlocal bucket_cursor
            tasks: List[FleetShardTask] = []
            group_loads: Dict[str, Tuple[float, ...]] = {}
            colocated_counts: Dict[str, int] = {}
            window_start_time = bucket_cursor * spec.bucket_seconds
            for group in spec.groups:
                # One arrival model per group per stage (load_at would build
                # a fresh one per bucket).
                diurnal = model.arrival_model(group)
                loads = tuple(
                    diurnal.rate_at((bucket_cursor + index) * spec.bucket_seconds)
                    for index in range(buckets)
                )
                calibration = calibrations[group.name]
                placed_cores = placed[group.name]
                colocated = placed_cores > 0
                sampled = sampled_positions(spec, placed_cores)
                colocated_count = int(np.count_nonzero(colocated))
                group_loads[group.name] = loads
                colocated_counts[group.name] = colocated_count
                # The per-bucket sample floor covers *both* guardrail sides,
                # spread over the machines that actually draw (everyone in
                # exact mode): canary stages have few colocated machines, and
                # since stages compare against the concurrent baseline, late
                # stages can equally leave only a handful of baseline
                # machines as the reference.  A P99 estimated from a handful
                # of draws on either side is noise, not a guardrail signal.
                # At fleet scale both floors are inactive.
                drawn_colocated = (
                    colocated_count
                    if sampled is None
                    else int(np.count_nonzero(colocated[sampled]))
                )
                drawn_baseline = (
                    group.machines - colocated_count
                    if sampled is None
                    else sampled.size - drawn_colocated
                )
                colocated_rate = spec.samples_per_machine_bucket
                if drawn_colocated:
                    floor = -(-spec.min_colocated_samples_per_bucket // drawn_colocated)
                    colocated_rate = max(colocated_rate, floor)
                baseline_rate = spec.samples_per_machine_bucket
                if drawn_baseline:
                    floor = -(-spec.min_colocated_samples_per_bucket // drawn_baseline)
                    baseline_rate = max(baseline_rate, floor)
                for shard_index, start, stop in model.shards(group):
                    shard_sampled = None
                    if sampled is not None:
                        first, last = np.searchsorted(sampled, (start, stop))
                        shard_sampled = sampled[first:last] - start
                    shard_faults = (
                        timeline.shard_plan(
                            group=group.name,
                            start=start,
                            stop=stop,
                            start_time=window_start_time,
                            bucket_seconds=spec.bucket_seconds,
                            buckets=buckets,
                        )
                        if timeline is not None
                        else None
                    )
                    tasks.append(
                        FleetShardTask(
                            stage=stage,
                            group=group.name,
                            shard_index=shard_index,
                            seed=spec.seed,
                            logical_cores=group.machine.logical_cores,
                            samples_per_machine=baseline_rate,
                            colocated_samples_per_machine=colocated_rate,
                            bucket_seconds=spec.bucket_seconds,
                            loads=loads,
                            placed_cores=placed_cores[start:stop],
                            baseline=calibration.baseline,
                            colocated=calibration.colocated,
                            sampled=shard_sampled,
                            faults=shard_faults,
                        )
                    )
            span = (
                tracer.span("fleet.shards", stage=stage, shards=len(tasks), buckets=buckets)
                if tracer is not None
                else nullcontext()
            )
            with span:
                shard_results = runner.map(_simulate_shard, [(task,) for task in tasks])
            start_bucket = bucket_cursor
            bucket_cursor += buckets
            merged = _merge_shards(shard_results, [group.name for group in spec.groups], buckets)
            reclaimed = 0.0
            progress = 0.0
            for shard in shard_results:
                reclaimed += shard.reclaimed_core_hours
                progress += shard.batch_machine_hours
                result.machine_buckets += shard.machines * buckets
            if telemetry is not None:
                self._publish_buckets(
                    telemetry,
                    stage,
                    start_bucket,
                    buckets,
                    group_loads,
                    colocated_counts,
                    calibrations,
                    merged,
                    rollout,
                )
            return merged, reclaimed, progress

        # ------------------------------------------------------ baseline bake
        bake_buckets = spec.rollout.bake_buckets
        no_batch = {
            group.name: np.zeros(group.machines, dtype=np.int64) for group in spec.groups
        }
        if tracer is not None:
            with tracer.span(
                "rollout.stage", stage="bake", fraction=0.0, decision="reference"
            ):
                bake_merged, _, _ = run_buckets("bake", bake_buckets, no_batch)
        else:
            bake_merged, _, _ = run_buckets("bake", bake_buckets, no_batch)
        reference_p99: Dict[str, float] = {}
        bake_digest = LatencyDigest()
        for group in spec.groups:
            group_digest = LatencyDigest.merged(bake_merged[group.name]["baseline"])
            reference_p99[group.name] = group_digest.percentile(99.0)
            bake_digest.merge(group_digest)
        result.baseline_digest.merge(bake_digest)
        result.stages.append(
            StageAccount(
                stage="bake",
                fraction=0.0,
                buckets=bake_buckets,
                machines_enabled=0,
                colocated_machines=0,
                placed_jobs=0,
                unplaced_jobs=demands.size,
                baseline_p99_ms=to_millis(bake_digest.percentile(99.0)),
                colocated_p99_ms=0.0,
                p99_ratio=0.0,
                decision="reference",
                reclaimed_core_hours=0.0,
                batch_machine_hours=0.0,
                slo_violation_minutes=0.0,
            )
        )

        # ----------------------------------------------------- rollout stages
        for stage_index, fraction in enumerate(spec.rollout.stage_fractions):
            stage = f"stage-{stage_index + 1}"
            enabled = [model.enabled_count(group, fraction) for group in spec.groups]
            machines_enabled = sum(enabled)
            names: List[str] = []
            capacities: List[np.ndarray] = []
            for group, count in zip(spec.groups, enabled):
                reclaimable = calibrations[group.name].reclaimable_cores(group.buffer_cores)
                names.extend(model.machine_names(group)[:count])
                capacities.append(np.full(count, reclaimable, dtype=np.int64))
            plan = plan_placement(
                names, np.concatenate(capacities), demands, spec.placement.strategy
            )
            # Each group's placed cores per machine position: the plan's
            # slice for its enabled prefix, nothing past it.
            placed: Dict[str, np.ndarray] = {}
            offset = 0
            for group, count in zip(spec.groups, enabled):
                placed[group.name] = np.zeros(group.machines, dtype=np.int64)
                placed[group.name][:count] = plan.placed_cores[offset : offset + count]
                offset += count

            # Churn semantics: each iteration is one *attempt* of the stage.
            # A lost stage digest (controller crash inside the measurement
            # window) fails safe to a "retry" decision, idles out the capped
            # backoff, and re-measures; a genuine breach (or exhausted
            # attempts) halts as before.  Healthy rollouts run exactly one
            # attempt per stage and take their historical path verbatim.
            while True:
                stage_stack = ExitStack()
                stage_span = None
                if tracer is not None:
                    stage_span = stage_stack.enter_context(
                        tracer.span("rollout.stage", stage=stage, fraction=fraction)
                    )
                window_start = bucket_cursor * spec.bucket_seconds

                merged, reclaimed, progress = run_buckets(
                    stage, spec.rollout.stage_buckets, placed
                )
                window_end = bucket_cursor * spec.bucket_seconds

                stage_baseline = LatencyDigest()
                stage_colocated = LatencyDigest()
                worst_ratio = 0.0
                violation_minutes = 0.0
                for group in spec.groups:
                    group_colocated = LatencyDigest.merged(merged[group.name]["colocated"])
                    group_baseline = LatencyDigest.merged(merged[group.name]["baseline"])
                    stage_baseline.merge(group_baseline)
                    stage_colocated.merge(group_colocated)
                    # Guardrail reference: the *concurrent* baseline machines
                    # of the same stage, so colocated and reference P99s are
                    # always measured at the same diurnal phase.  (Comparing
                    # against the bake-time snapshot let a stage landing on
                    # the diurnal peak breach against a trough-time reference
                    # with zero isolation effect.)  The bake reference only
                    # remains as the fallback for a stage that left no
                    # baseline machines.
                    reference = (
                        group_baseline.percentile(99.0)
                        if group_baseline.count
                        else reference_p99[group.name]
                    )
                    if group_colocated.count:
                        ratio = rollout.monitor.ratio(group_colocated.percentile(99.0), reference)
                        worst_ratio = max(worst_ratio, ratio)
                    for bucket, bucket_digest in enumerate(merged[group.name]["colocated"]):
                        bucket_baseline = merged[group.name]["baseline"][bucket]
                        bucket_reference = (
                            bucket_baseline.percentile(99.0)
                            if bucket_baseline.count
                            else reference
                        )
                        if bucket_digest.count and rollout.monitor.breached(
                            bucket_digest.percentile(99.0), bucket_reference
                        ):
                            violation_minutes += spec.bucket_seconds / 60.0
                result.baseline_digest.merge(stage_baseline)
                result.colocated_digest.merge(stage_colocated)

                if crash_pending and window_start <= crash_spec.at < window_end:
                    # The coordinating controller died inside this attempt's
                    # measurement window and the attempt's guardrail digest
                    # is gone — the verdict must fail safe, not advance on
                    # thin air.
                    crash_pending = False
                    worst_ratio = float("nan")

                decision = rollout.record_stage(stage, fraction, worst_ratio)
                if stage_span is not None:
                    stage_span.attributes["decision"] = decision.action
                    stage_span.attributes["attempt"] = decision.attempt
                    stage_span.attributes["p99_ratio"] = (
                        round(worst_ratio, 4) if math.isfinite(worst_ratio) else None
                    )
                stage_stack.close()
                result.stages.append(
                    StageAccount(
                        stage=stage,
                        fraction=fraction,
                        buckets=spec.rollout.stage_buckets,
                        machines_enabled=machines_enabled,
                        colocated_machines=int(np.count_nonzero(plan.placed_cores)),
                        placed_jobs=plan.placed_jobs,
                        unplaced_jobs=plan.unplaced_jobs,
                        baseline_p99_ms=to_millis(stage_baseline.percentile(99.0)),
                        colocated_p99_ms=to_millis(stage_colocated.percentile(99.0)),
                        p99_ratio=worst_ratio,
                        decision=decision.action,
                        reclaimed_core_hours=reclaimed,
                        batch_machine_hours=progress,
                        slo_violation_minutes=violation_minutes,
                    )
                )
                if decision.action == "retry":
                    bucket_cursor += rollout.backoff_buckets(stage)
                    continue
                break
            if decision.breached:
                result.status = "halted"
                break
            result.stages_completed += 1

        rollout.finish()
        result.active_config_versions = {
            name: self.config_store.active_version(name)
            for name in sorted(self._config_entries())
        }
        return result

    # -------------------------------------------------------------- telemetry
    def _publish_buckets(
        self,
        telemetry,
        stage: str,
        start_bucket: int,
        buckets: int,
        group_loads: Dict[str, Tuple[float, ...]],
        colocated_counts: Dict[str, int],
        calibrations: Dict[str, GroupCalibration],
        merged: Dict[str, Dict[str, List[LatencyDigest]]],
        rollout: StagedRollout,
    ) -> None:
        """One snapshot per simulated bucket, derived from merged digests.

        Occupancy and the idle buffer come from the calibrated CPU fractions
        (:func:`~repro.fleet.model.mode_scalars`) at each bucket's diurnal
        load; the analytic tier models no query drops, so served QPS equals
        offered QPS by construction.  ``None`` marks a side with no samples
        (e.g. colocated P99 during the bake).
        """
        spec = self._spec
        for bucket in range(buckets):
            offered = 0.0
            busy_cores = 0.0
            idle_buffer = 0.0
            total_cores = 0.0
            bucket_baseline = LatencyDigest()
            bucket_colocated = LatencyDigest()
            for group in spec.groups:
                calibration = calibrations[group.name]
                qps = group_loads[group.name][bucket]
                cores = group.machine.logical_cores
                colocated = colocated_counts[group.name]
                offered += qps * group.machines
                busy_base, _, _ = mode_scalars(calibration.baseline, qps)
                busy_col, secondary_cpu, _ = mode_scalars(calibration.colocated, qps)
                busy_cores += (
                    (group.machines - colocated) * busy_base
                    + colocated * (busy_col + secondary_cpu)
                ) * cores
                idle_buffer += colocated * max(0.0, 1.0 - busy_col - secondary_cpu) * cores
                total_cores += group.machines * cores
                bucket_baseline.merge(merged[group.name]["baseline"][bucket])
                bucket_colocated.merge(merged[group.name]["colocated"][bucket])
            baseline_p99 = (
                bucket_baseline.percentile(99.0) if bucket_baseline.count else None
            )
            colocated_p99 = (
                bucket_colocated.percentile(99.0) if bucket_colocated.count else None
            )
            ratio = None
            if baseline_p99 is not None and colocated_p99 is not None:
                candidate = rollout.monitor.ratio(colocated_p99, baseline_p99)
                if math.isfinite(candidate):
                    ratio = candidate
            metrics = {
                "fleet.offered_qps": offered,
                "fleet.served_qps": offered,
                "fleet.occupancy": busy_cores / total_cores if total_cores else 0.0,
                "fleet.idle_buffer_cores": idle_buffer,
                "fleet.machines_colocated": float(sum(colocated_counts.values())),
                "fleet.baseline_p99_ms": (
                    to_millis(baseline_p99) if baseline_p99 is not None else None
                ),
                "fleet.colocated_p99_ms": (
                    to_millis(colocated_p99) if colocated_p99 is not None else None
                ),
                "fleet.p99_ratio": ratio,
                "fleet.guardrail_ratio": rollout.monitor.p99_multiplier,
            }
            telemetry.writer.write_snapshot(
                (start_bucket + bucket) * spec.bucket_seconds, metrics, label=stage
            )
