"""One harness per paper figure.

Every function reproduces one figure or table of the paper's evaluation and
returns a :class:`FigureResult` with the rows the paper plots.  Durations are
parameters so tests can use short runs while the benchmarks use longer ones.

A simulated figure (Figures 4–9 and the headline utilisation) is a catalog
scenario plus a renderer: ``fig5_blind_isolation`` runs the ``fig5``
scenario with :func:`~repro.experiments.matrix.run_scenario` and renders its
runs as Figure 5's rows.  ``grid`` reshapes the scenario's axes, its loads
(``qps``) and its named runs (``run``), and ``python -m repro.reporting
--scenario fig5`` replicates the same runs over seeds.  The runner's cache
serves the standalone baselines that figures share.  Figure 10 blends
calibration runs per bucket, so it stays a harness of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.sampled import SampledClusterModel
from ..config.schema import ClusterSpec, FleetSpec, MachineGroupSpec
from ..errors import ConfigError
from ..fleet.model import (
    COLOCATED,
    FleetModel,
    ModeCalibration,
    blend_curve,
    mode_curve_matrix,
    mode_scalars,
    quantile_grid,
)
from . import scenarios
from .matrix import run_scenario
from .single_machine import SingleMachineResult

__all__ = [
    "FigureResult",
    "fig4_no_isolation",
    "fig5_blind_isolation",
    "fig6_static_cores",
    "fig7_cpu_cycles",
    "fig8_comparison",
    "fig9_cluster",
    "fig10_production",
    "headline_utilization",
]

#: A ``grid`` override of a figure scenario's axes.
Grid = Optional[Mapping[str, Sequence[Any]]]
#: A figure scenario's variants in grid order: ``(axis values, spec, result)``.
Runs = List[Tuple[Dict[str, Any], Any, Any]]

#: Summary columns of a latency row (Figures 4–7), after its label and load.
_LATENCY_COLUMNS = (
    "p50_ms", "p95_ms", "p99_ms", "drop_rate_pct",
    "primary_cpu_pct", "secondary_cpu_pct", "os_cpu_pct", "idle_cpu_pct",
)
#: Summary columns of a Figure 8 row, after its approach.
_COMPARISON_COLUMNS = (
    "p99_ms", "p50_ms", "idle_cpu_pct", "secondary_progress", "secondary_cpu_pct",
    "drop_rate_pct",
)


@dataclass
class FigureResult:
    """Rows reproducing one figure, plus free-form notes."""

    figure_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def row(self, **filters: object) -> Dict[str, object]:
        """Return the first row matching every ``key=value`` filter."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in filters.items()):
                return row
        raise KeyError(f"no row matching {filters!r} in {self.figure_id}")

    def column(self, name: str) -> List[object]:
        return [row[name] for row in self.rows]


def _latency_row(label: str, qps: float, result: SingleMachineResult,
                 baseline: Optional[SingleMachineResult] = None) -> Dict[str, object]:
    summary = result.summary()
    row: Dict[str, object] = {"workload": label, "qps": qps}
    row.update((key, summary[key]) for key in _LATENCY_COLUMNS)
    if baseline is not None:
        base = baseline.summary()
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            row[key.replace("_ms", "_delta_ms")] = summary[key] - base[key]
    return row


def _load_sweep_rows(runs: Runs, level=None) -> List[Dict[str, object]]:
    """Latency rows of a per-load figure (Figures 4–7), in grid order.

    A load's ``standalone`` run is the baseline of its other runs, whose rows
    gain ``*_delta_ms`` columns.  ``level(spec)`` gives a swept run's row
    label and extra columns, and drops the standalone rows; without it
    (Figure 4) every run is a row, labelled by its run name.
    """
    baselines = {axes["qps"]: run for axes, _, run in runs if axes["run"] == "standalone"}
    rows = []
    for axes, spec, run in runs:
        qps, name = axes["qps"], axes["run"]
        if name == "standalone":
            if level is None:
                rows.append(_latency_row(name, qps, run))
            continue
        label, columns = (name, {}) if level is None else level(spec)
        row = _latency_row(label, qps, run, baseline=baselines.get(qps))
        row.update(columns)
        rows.append(row)
    return rows


def _buffer_level(spec) -> Tuple[str, Dict[str, object]]:
    cores = spec.perfiso.cpu.buffer_cores
    return f"blind-{cores}-buffers", {"buffer_cores": cores}


def _core_level(spec) -> Tuple[str, Dict[str, object]]:
    cores = spec.perfiso.cpu.secondary_cores
    return f"{cores}-cores", {"secondary_cores": cores}


def _cycle_level(spec) -> Tuple[str, Dict[str, object]]:
    fraction = spec.perfiso.cpu.cpu_fraction
    return f"{int(fraction * 100)}%-cycles", {"cpu_fraction_pct": fraction * 100.0}


def _comparison_rows(runs: Runs) -> List[Dict[str, object]]:
    """One row per approach; ``relative_progress_pct`` is its secondary
    progress as a percentage of the unrestricted (``no_isolation``) run's."""
    by_approach = {axes["run"]: run for axes, _, run in runs}
    if "no_isolation" not in by_approach:
        raise ConfigError("Figure 8's relative progress needs the no_isolation run")
    baseline = by_approach["no_isolation"].secondary_progress
    rows: List[Dict[str, object]] = []
    for approach, run in by_approach.items():
        summary = run.summary()
        row: Dict[str, object] = {"approach": approach}
        row.update((key, summary[key]) for key in _COMPARISON_COLUMNS)
        relative = run.secondary_progress / baseline if baseline > 0 else 0.0
        row["relative_progress_pct"] = relative * 100.0
        rows.append(row)
    return rows


def _utilization_rows(runs: Runs) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for axes, _, run in runs:
        summary, name = run.summary(), axes["run"]
        row: Dict[str, object] = {
            "configuration": "colocated+blind-isolation" if name == "blind-8" else name,
            "busy_cpu_pct": 100.0 - summary["idle_cpu_pct"],
        }
        for key in ("primary_cpu_pct", "secondary_cpu_pct", "p99_ms"):
            row[key] = summary[key]
        rows.append(row)
    return rows


def _cluster_rows(runs: Runs) -> List[Dict[str, object]]:
    """One row per cluster run: its latency per layer and its CPU breakdown."""
    return [{"scenario": axes["run"], **result.summary()} for axes, _, result in runs]


#: Each figure's row renderer and the paper's claim it checks.
_FIGURES = {
    "fig4": (_load_sweep_rows, "paper: mid raises P99 by up to 42%, high by up to 29x with "
             "11-32% of queries dropped"),
    "fig5": (partial(_load_sweep_rows, level=_buffer_level),
             "paper: 8 buffer cores keep the P99 within 1 ms of standalone"),
    "fig6": (partial(_load_sweep_rows, level=_core_level), "paper: 8 cores protect the SLO "
             "even at peak but cap the secondary at ~17% of CPU time"),
    "fig7": (partial(_load_sweep_rows, level=_cycle_level),
             "paper: cycle throttling always degrades latency and always drops some queries"),
    "fig8": (_comparison_rows, "paper: blind isolation and CPU cores both protect tail "
             "latency; blind leaves ~13% less CPU idle and gives the secondary ~17% more "
             "work; CPU cycles fails"),
    "headline": (_utilization_rows, "paper: 21% -> 66% average CPU utilisation without "
                 "impacting tail latency"),
    "fig9": (_cluster_rows, "paper: with PerfIso the per-layer P99 stays within ~1.2 ms of "
             "the standalone cluster"),
}


def _figure(name: str, grid: Grid, runner, **common) -> FigureResult:
    """Run the figure's catalog scenario and render its runs as the figure:
    the scenario's description is the figure's title."""
    result = run_scenario(name, runner=runner, grid=grid, **common)
    runs = [
        (dict(variant.axis_values), variant.spec, run)
        for variant, run in zip(result.variants, result.results)
    ]
    render, note = _FIGURES[name]
    return FigureResult(
        figure_id=name, title=result.scenario.description, rows=render(runs), notes=[note]
    )


def fig4_no_isolation(
    grid: Grid = None, duration: float = 5.0, warmup: float = 1.0, seed: int = 1, runner=None
) -> FigureResult:
    """Figure 4: standalone vs unrestricted mid/high secondary (latency + CPU)."""
    return _figure("fig4", grid, runner, duration=duration, warmup=warmup, seed=seed)


def fig5_blind_isolation(
    grid: Grid = None, duration: float = 5.0, warmup: float = 1.0, seed: int = 1, runner=None
) -> FigureResult:
    """Figure 5: blind isolation with 4 and 8 buffer cores (degradation + CPU)."""
    return _figure("fig5", grid, runner, duration=duration, warmup=warmup, seed=seed)


def fig6_static_cores(
    grid: Grid = None, duration: float = 5.0, warmup: float = 1.0, seed: int = 1, runner=None
) -> FigureResult:
    """Figure 6: statically restricting the secondary's CPU cores."""
    return _figure("fig6", grid, runner, duration=duration, warmup=warmup, seed=seed)


def fig7_cpu_cycles(
    grid: Grid = None, duration: float = 5.0, warmup: float = 1.0, seed: int = 1, runner=None
) -> FigureResult:
    """Figure 7: restricting the secondary's CPU cycles (latency, CPU, drops)."""
    return _figure("fig7", grid, runner, duration=duration, warmup=warmup, seed=seed)


def fig8_comparison(
    qps: float = scenarios.AVERAGE_LOAD_QPS, duration: float = 5.0, warmup: float = 1.0,
    seed: int = 1, grid: Grid = None, runner=None,
) -> FigureResult:
    """Figure 8: P99 latency, idle CPU and secondary progress per approach.

    A ``grid`` that picks the approaches must keep the ``no_isolation`` run,
    the baseline of relative progress.
    """
    return _figure("fig8", grid, runner, qps=qps, duration=duration, warmup=warmup, seed=seed)


def headline_utilization(
    qps: float = scenarios.AVERAGE_LOAD_QPS, duration: float = 5.0, warmup: float = 1.0,
    seed: int = 1, runner=None,
) -> FigureResult:
    """The abstract's headline: average CPU utilisation 21% -> 66% at off-peak load."""
    return _figure(
        "headline", None, runner, qps=qps, duration=duration, warmup=warmup, seed=seed
    )


# --------------------------------------------------------------------- Fig 9
def fig9_cluster(
    partitions: int = 5,
    rows: int = 2,
    tla_machines: int = 4,
    total_qps: float = 8000.0,
    duration: float = 2.0,
    warmup: float = 0.5,
    seed: int = 1,
    buffer_cores: int = 8,
    runner=None,
) -> FigureResult:
    """Figure 9: per-layer latency on the cluster for three colocation modes.

    The default uses a scaled-down partition count (per-machine load is
    unchanged — every machine of a row serves every request routed to that
    row); pass ``partitions=22, rows=2, tla_machines=31`` for the paper's full
    75-machine layout if you can afford the run time.
    """
    return _figure(
        "fig9", None, runner, partitions=partitions, rows=rows, tla_machines=tla_machines,
        buffer_cores=buffer_cores, qps=total_qps / rows, duration=duration, warmup=warmup,
        seed=seed,
    )


# -------------------------------------------------------------------- Fig 10
#: Per-machine latency draws feeding one bucket's sampled cluster.
_FIG10_DRAWS = 1000


def _fig10_bucket(
    matrix: np.ndarray, mode: ModeCalibration, qps: float, seed: int, bucket: int
) -> Tuple[np.ndarray, float]:
    """One bucket's per-machine latency draws and busy-CPU fraction at ``qps``.

    Seeded from (experiment seed, bucket) — never from the load itself, or
    two buckets at the same QPS would draw identical samples.
    """
    uniforms = np.random.default_rng((seed, bucket)).random(_FIG10_DRAWS)
    samples = np.interp(uniforms, quantile_grid(), blend_curve(matrix, mode, qps))
    busy, _, _ = mode_scalars(mode, qps)
    return samples, busy


def fig10_production(
    duration: float = 3600.0,
    bucket: float = 120.0,
    calibration_duration: float = 2.5,
    seed: int = 7,
    runner=None,
) -> FigureResult:
    """Figure 10: an hour of the 650-machine cluster under diurnal live load.

    The cluster's index servers are one fleet group running blind isolation
    beside ML training.  Its colocated mode is calibrated at four loads with
    the detailed simulator; each bucket interpolates the calibration at the
    diurnal load and feeds the draws to the sampled TLA/MLA fan-out model.
    """
    from ..runtime.runner import ExperimentTask, default_runner

    spec = FleetSpec(
        groups=(MachineGroupSpec(name="indexserve"),),
        calibration_qps=(1500.0, 2500.0, 3500.0, 4000.0),
        calibration_duration=calibration_duration,
        calibration_warmup=0.5,
        seed=seed,
    )
    model = FleetModel(spec)
    group = spec.groups[0]
    active = runner if runner is not None else default_runner()
    tasks = [
        ExperimentTask(
            model.calibration_spec(group, COLOCATED, index),
            scenario=f"fig10-calibration-{int(qps)}",
        )
        for index, qps in enumerate(spec.calibration_qps)
    ]
    mode = model.mode_calibration(group, COLOCATED, active.run_batch(tasks))
    matrix = mode_curve_matrix(mode)
    arrival = model.arrival_model(group)
    # 650 machines ~= 25 partitions x 2 rows of index servers plus TLAs.
    cluster = ClusterSpec(partitions=25, rows=2, tla_machines=50)
    rng = np.random.default_rng(seed)
    figure = FigureResult(
        figure_id="fig10",
        title="Production cluster: load, TLA P99 and CPU utilisation over one hour",
    )
    for index in range(int(duration / bucket)):
        t = index * bucket
        per_machine_qps = arrival.rate_at(t)
        samples, busy = _fig10_bucket(matrix, mode, per_machine_qps, seed, index)
        layer = SampledClusterModel(
            cluster, samples, seed=seed + index, machine_skew_sigma=0.03
        ).simulate(4000)
        # Small measurement noise so the series looks like a real fleet
        # rather than a smooth analytic curve.
        noise = float(rng.normal(0.0, 0.01))
        figure.rows.append(
            {
                "time_s": t,
                "row_qps": per_machine_qps * cluster.rows,
                "tla_p99_ms": layer.tla.as_millis()["p99_ms"],
                "cpu_utilization_pct": max(0.0, min(100.0, (busy + noise) * 100.0)),
            }
        )
    cpu = figure.column("cpu_utilization_pct")
    p99 = figure.column("tla_p99_ms")
    figure.notes.append(
        f"mean CPU utilisation {float(np.mean(cpu)) if cpu else 0.0:.1f}% "
        f"(paper: ~70% averaged over the hour); "
        f"max TLA P99 {float(np.max(p99)) if p99 else 0.0:.1f} ms"
    )
    return figure
