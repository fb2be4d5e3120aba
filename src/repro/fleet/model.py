"""The fleet model: machine groups, diurnal load and per-group calibration.

A fleet of thousands of machines cannot be event-simulated directly, so the
model follows the ``largescale`` recipe one level up: every *distinct group
configuration* is calibrated once with the detailed single-machine simulator
(through the shared experiment runner, so repeated calibrations are cache
hits), and per-machine behaviour is then drawn from the calibrated latency
distributions by inverse-CDF sampling.

Calibration is captured in compact, hashable form — quantile curves and CPU
fractions per load point — because every shard task carries it into a
worker process.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..config.schema import (
    BlindIsolationSpec,
    CpuBullySpec,
    DiskBullySpec,
    DiurnalSpec,
    ExperimentSpec,
    FleetSpec,
    HdfsSpec,
    MachineGroupSpec,
    MlTrainingSpec,
    PerfIsoSpec,
    WorkloadSpec,
)
from ..errors import ExperimentError
from ..workloads.arrival_models import DiurnalArrival

__all__ = [
    "QUANTILE_POINTS",
    "QUANTILE_GRID_MAX",
    "quantile_grid",
    "ModeCalibration",
    "GroupCalibration",
    "FleetModel",
    "stable_seed",
    "interpolate_mode",
    "mode_curve_matrix",
    "blend_curve",
    "mode_scalars",
    "closed_form_histogram",
]

#: ``np.trapz`` was renamed in NumPy 2.0; support both (deps pin >= 1.24).
_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))

#: Resolution of the calibrated inverse-CDF curves.
QUANTILE_POINTS = 129

#: The curves stop at q=0.999 rather than the raw maximum: a short
#: calibration run's single largest sample is an outlier, and stretching the
#: last grid cell out to it would give every machine a fat synthetic tail
#: that small canary groups then mistake for a latency regression.
QUANTILE_GRID_MAX = 0.999


@functools.lru_cache(maxsize=None)
def quantile_grid() -> np.ndarray:
    """The fixed quantile grid shared by calibration and shard sampling:
    one read-only array per process, built on first use."""
    grid = np.linspace(0.0, 1.0, QUANTILE_POINTS)
    grid[-1] = QUANTILE_GRID_MAX
    grid.flags.writeable = False
    return grid


#: The calibrated operating modes of a fleet machine.
BASELINE, COLOCATED = "baseline", "colocated"


def stable_seed(*parts: object) -> int:
    """A process-independent integer seed derived from ``parts``.

    ``hash()`` is salted per process (PYTHONHASHSEED), so shard RNG seeds are
    derived from a cryptographic digest of the parts' reprs instead — the
    same fleet spec must draw the same samples in every process and on every
    run.
    """
    text = "\x1f".join(repr(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ModeCalibration:
    """One operating mode's calibrated behaviour across the load points."""

    qps: Tuple[float, ...]
    #: Latency quantile curve per load point (inverse CDF on a fixed grid).
    quantiles: Tuple[Tuple[float, ...], ...]
    busy_cpu: Tuple[float, ...]
    secondary_cpu: Tuple[float, ...]
    #: Secondary progress units per simulated second.
    progress_per_s: Tuple[float, ...]


@dataclass(frozen=True)
class GroupCalibration:
    """Both modes of one machine group, plus its capacity estimate inputs."""

    group: str
    logical_cores: int
    baseline: ModeCalibration
    colocated: ModeCalibration

    def reclaimable_cores(self, buffer_cores: int) -> int:
        """Whole cores the placement scheduler may hand to batch jobs.

        Estimated from the baseline calibration: cores idle at the mean
        calibrated load, minus the inviolable buffer.
        """
        busy = float(np.mean(self.baseline.busy_cpu))
        idle_cores = (1.0 - busy) * self.logical_cores - buffer_cores
        return max(0, int(math.floor(idle_cores)))


def _bracket(points: Tuple[float, ...], qps: float) -> Tuple[int, int, float]:
    """The (lower, upper, weight) load-point bracket around ``qps``.

    ``lower == upper`` (weight 0) at and beyond the calibrated range — the
    same clamping the historical :func:`interpolate_mode` applied.
    """
    if qps <= points[0]:
        return 0, 0, 0.0
    if qps >= points[-1]:
        last = len(points) - 1
        return last, last, 0.0
    upper = next(i for i, point in enumerate(points) if point >= qps)
    lower = upper - 1
    weight = (qps - points[lower]) / (points[upper] - points[lower])
    return lower, upper, weight


def mode_curve_matrix(mode: ModeCalibration) -> np.ndarray:
    """Every load point's quantile curve as one ``(points, QUANTILE_POINTS)``
    array — hoist this conversion out of per-bucket loops."""
    return np.asarray(mode.quantiles, dtype=np.float64)


def blend_curve(matrix: np.ndarray, mode: ModeCalibration, qps: float) -> np.ndarray:
    """The quantile curve at ``qps``: bitwise the curve
    :func:`interpolate_mode` returns, computed from a prebuilt matrix."""
    lower, upper, weight = _bracket(mode.qps, qps)
    if lower == upper:
        return matrix[lower]
    return (1.0 - weight) * matrix[lower] + weight * matrix[upper]


def mode_scalars(mode: ModeCalibration, qps: float) -> Tuple[float, float, float]:
    """The (busy, secondary_cpu, progress_per_s) blend at ``qps`` without
    converting the quantile curves — the accounting loop only needs these."""
    lower, upper, weight = _bracket(mode.qps, qps)
    if lower == upper:
        return mode.busy_cpu[lower], mode.secondary_cpu[lower], mode.progress_per_s[lower]

    def mix(values: Tuple[float, ...]) -> float:
        return (1.0 - weight) * values[lower] + weight * values[upper]

    return mix(mode.busy_cpu), mix(mode.secondary_cpu), mix(mode.progress_per_s)


def interpolate_mode(mode: ModeCalibration, qps: float) -> Tuple[np.ndarray, float, float, float]:
    """Blend the two nearest load points: (quantile curve, busy, sec_cpu, rate)."""
    curve = blend_curve(mode_curve_matrix(mode), mode, qps)
    busy, secondary, progress = mode_scalars(mode, qps)
    return curve, busy, secondary, progress


def _largest_remainder(expected: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative ``expected`` (summing to ~``total``) to integers
    that sum to exactly ``total``, deterministically (largest remainders win,
    stable over index on ties)."""
    floors = np.floor(expected).astype(np.int64)
    deficit = total - int(floors.sum())
    if deficit > 0:
        order = np.argsort(-(expected - floors), kind="stable")
        floors[order[:deficit]] += 1
    elif deficit < 0:  # floating-point spill: trim the largest cells
        order = np.argsort(-floors, kind="stable")
        for index in order[: -deficit]:
            floors[index] -= 1
    return floors


def closed_form_histogram(
    curve: np.ndarray, edges: np.ndarray, total: int
) -> Tuple[np.ndarray, float, float]:
    """The closed-form row model: the *expected* digest contribution of
    ``total`` inverse-CDF draws from ``curve``, without drawing them.

    Unsampled machines in hyperscale mode contribute this instead of
    per-machine randomness: the calibrated quantile curve is a piecewise-
    linear inverse CDF, so the CDF at each digest bin edge is the curve's
    inverse (one ``np.interp`` against the swapped axes), bin masses are its
    differences, and counts are rounded largest-remainder so every machine-
    bucket still contributes exactly its sample quota.  Machine skew is
    ignored here (its mean is ~1.0005 at the fleet's sigma); sampled
    machines carry the heterogeneity signal.

    Returns ``(counts, sum, maximum)`` ready for
    :meth:`~repro.metrics.latency.LatencyDigest.add_counts` — ``counts`` has
    ``len(edges) + 1`` cells (underflow, bins, overflow).
    """
    grid = quantile_grid()
    cdf = np.interp(edges, curve, grid)
    # Uniform draws in (QUANTILE_GRID_MAX, 1) clamp to the last curve value,
    # so the CDF saturates at 1.0 there (np.interp stops at the grid's 0.999).
    cdf = np.where(edges >= curve[-1], 1.0, cdf)
    probs = np.empty(edges.size + 1, dtype=np.float64)
    probs[0] = cdf[0]
    probs[1:-1] = np.diff(cdf)
    probs[-1] = 1.0 - cdf[-1]
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum()
    counts = _largest_remainder(probs * total, total)
    mean = float(_trapezoid(curve, grid) + (1.0 - grid[-1]) * curve[-1])
    return counts, mean * total, float(curve[-1])


def _secondary_fields(group: MachineGroupSpec) -> Dict[str, object]:
    """The ExperimentSpec tenant field for the group's harvested secondary."""
    threads = group.secondary_threads
    if group.secondary == "cpu_bully":
        spec = CpuBullySpec(threads=threads) if threads else CpuBullySpec()
    elif group.secondary == "disk_bully":
        spec = DiskBullySpec(threads=threads) if threads else DiskBullySpec()
    elif group.secondary == "hdfs":
        spec = HdfsSpec()
    else:
        spec = MlTrainingSpec(threads=threads) if threads else MlTrainingSpec()
    return {group.secondary: spec}


class FleetModel:
    """Machine naming, sharding, load curves and calibration for one fleet."""

    def __init__(self, spec: FleetSpec) -> None:
        self._spec = spec
        self._machine_names: Dict[str, Tuple[str, ...]] = {
            group.name: tuple(
                f"{group.name}-{index:05d}" for index in range(group.machines)
            )
            for group in spec.groups
        }

    @property
    def spec(self) -> FleetSpec:
        return self._spec

    @property
    def total_machines(self) -> int:
        return self._spec.total_machines

    def machine_names(self, group: MachineGroupSpec) -> Tuple[str, ...]:
        return self._machine_names[group.name]

    def enabled_count(self, group: MachineGroupSpec, fraction: float) -> int:
        """Machines of ``group`` covered by a cumulative rollout fraction."""
        return min(group.machines, int(math.ceil(fraction * group.machines)))

    def load_at(self, group: MachineGroupSpec, t: float) -> float:
        """Per-machine QPS of ``group`` at simulation time ``t``."""
        return self.arrival_model(group).rate_at(t)

    def arrival_model(self, group: MachineGroupSpec) -> DiurnalArrival:
        """The shared diurnal arrival model behind ``load_at`` for ``group``.

        Per-row diurnal curves come from the workload layer's arrival-model
        hierarchy (same arithmetic as the historical private implementation,
        so fleet results are bit-identical) — the single-machine and fleet
        implementations cannot drift apart.  Built from the *passed* group's
        fields, so derived group variants map to the curve they describe.
        """
        return DiurnalArrival(
            DiurnalSpec(
                peak_qps=group.peak_qps,
                trough_qps=group.trough_qps,
                period=self._spec.diurnal_period,
                phase_offset=group.phase_offset,
            )
        )

    def shards(self, group: MachineGroupSpec) -> List[Tuple[int, int, int]]:
        """Fixed-size shards as (shard_index, start, stop) machine slices.

        Shard boundaries depend only on the spec (never on the worker count),
        so fleet results are bit-identical at any parallelism.
        """
        size = self._spec.shard_machines
        return [
            (index, start, min(start + size, group.machines))
            for index, start in enumerate(range(0, group.machines, size))
        ]

    # ------------------------------------------------------------ calibration
    def calibration_spec(
        self, group: MachineGroupSpec, mode: str, point_index: int
    ) -> ExperimentSpec:
        """The single-machine experiment calibrating one (group, mode, load)."""
        qps = self._spec.calibration_qps[point_index]
        workload = WorkloadSpec(
            qps=qps,
            duration=self._spec.calibration_duration,
            warmup=self._spec.calibration_warmup,
        )
        base = ExperimentSpec(
            machine=group.machine,
            workload=workload,
            seed=self._spec.seed + point_index,
        )
        if mode == BASELINE:
            return base
        policy = self._spec.rollout.target_policy
        if policy == "none":
            perfiso = None
        else:
            perfiso = PerfIsoSpec(
                cpu_policy=policy,
                blind=BlindIsolationSpec(buffer_cores=group.buffer_cores),
            )
        return dataclasses.replace(base, perfiso=perfiso, **_secondary_fields(group))

    def calibrate(self, runner) -> Dict[str, GroupCalibration]:
        """Calibrate every group in one runner batch (deduped + cached).

        Groups sharing a configuration resolve to the same cache entries, so
        a 10-group fleet with three distinct row configurations costs three
        calibrations.
        """
        from ..runtime.runner import ExperimentTask

        grid = quantile_grid()
        tasks: List[ExperimentTask] = []
        labels: List[Tuple[str, str, int]] = []
        for group in self._spec.groups:
            for mode in (BASELINE, COLOCATED):
                for point_index in range(len(self._spec.calibration_qps)):
                    tasks.append(
                        ExperimentTask(
                            self.calibration_spec(group, mode, point_index),
                            scenario=f"fleet-calibration/{group.name}/{mode}",
                        )
                    )
                    labels.append((group.name, mode, point_index))

        measured: Dict[Tuple[str, str, int], Tuple] = {}
        for label, outcome in zip(labels, runner.run_batch(tasks)):
            samples = outcome.latency_samples
            if samples.size == 0:
                raise ExperimentError(
                    f"fleet calibration {label} produced no latency samples; "
                    "increase calibration_duration or load"
                )
            quantile_curve = tuple(float(v) for v in np.quantile(samples, grid))
            cpu = outcome.result.cpu
            busy = cpu.primary + cpu.secondary + cpu.os
            progress = outcome.result.secondary_progress / self._spec.calibration_duration
            measured[label] = (quantile_curve, busy, cpu.secondary, progress)

        calibrations: Dict[str, GroupCalibration] = {}
        for group in self._spec.groups:
            modes = {}
            for mode in (BASELINE, COLOCATED):
                points = range(len(self._spec.calibration_qps))
                rows = [measured[(group.name, mode, index)] for index in points]
                modes[mode] = ModeCalibration(
                    qps=tuple(self._spec.calibration_qps),
                    quantiles=tuple(row[0] for row in rows),
                    busy_cpu=tuple(row[1] for row in rows),
                    secondary_cpu=tuple(row[2] for row in rows),
                    progress_per_s=tuple(row[3] for row in rows),
                )
            calibrations[group.name] = GroupCalibration(
                group=group.name,
                logical_cores=group.machine.logical_cores,
                baseline=modes[BASELINE],
                colocated=modes[COLOCATED],
            )
        return calibrations
