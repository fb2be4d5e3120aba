"""One harness per paper figure.

Every function reproduces one figure/table of the paper's evaluation: it runs
the required scenarios, assembles the same rows/series the paper plots, and
returns a :class:`FigureResult` that the benchmarks print and
``EXPERIMENTS.md`` records.  Durations are parameters so tests can use short
runs while the benchmark harness uses longer, lower-variance ones.

Execution goes through :class:`repro.runtime.ExperimentRunner`: each harness
builds the full batch of ``ExperimentSpec`` runs it needs up front and submits
it at once, so independent scenarios fan out across worker processes and
results shared between figures (every figure re-runs the standalone baseline)
are served from the content-addressed cache instead of being re-simulated.
Because the runner returns results in task order and every run is a pure
function of its spec, figure rows are bit-identical whether a batch executed
serially or across N workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.sampled import SampledClusterModel
from ..cluster.simulated import ClusterScenario, SimulatedCluster
from ..config.schema import (
    BlindIsolationSpec,
    ClusterSpec,
    CpuBullySpec,
    DiskBullySpec,
    FleetSpec,
    HdfsSpec,
    IoThrottleSpec,
    MachineGroupSpec,
    PerfIsoSpec,
)
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
from .comparison import IsolationComparison
from .single_machine import SingleMachineResult

__all__ = [
    "FigureResult",
    "figure_from_scenario",
    "fig4_no_isolation",
    "fig5_blind_isolation",
    "fig6_static_cores",
    "fig7_cpu_cycles",
    "fig8_comparison",
    "fig9_cluster",
    "fig10_production",
    "headline_utilization",
]


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


def _batch(runner, labeled_specs) -> List[SingleMachineResult]:
    """Run ``[(label, spec), ...]`` as one batch, results in input order."""
    from ..runtime.runner import ExperimentTask, default_runner

    active = runner if runner is not None else default_runner()
    tasks = [ExperimentTask(spec, scenario=label) for label, spec in labeled_specs]
    return [outcome.result for outcome in active.run_batch(tasks)]


def _latency_row(label: str, qps: float, result: SingleMachineResult,
                 baseline: Optional[SingleMachineResult] = None) -> Dict[str, object]:
    summary = result.summary()
    row: Dict[str, object] = {
        "workload": label,
        "qps": qps,
        "p50_ms": summary["p50_ms"],
        "p95_ms": summary["p95_ms"],
        "p99_ms": summary["p99_ms"],
        "drop_rate_pct": summary["drop_rate_pct"],
        "primary_cpu_pct": summary["primary_cpu_pct"],
        "secondary_cpu_pct": summary["secondary_cpu_pct"],
        "os_cpu_pct": summary["os_cpu_pct"],
        "idle_cpu_pct": summary["idle_cpu_pct"],
    }
    if baseline is not None:
        base = baseline.summary()
        row["p50_delta_ms"] = summary["p50_ms"] - base["p50_ms"]
        row["p95_delta_ms"] = summary["p95_ms"] - base["p95_ms"]
        row["p99_delta_ms"] = summary["p99_ms"] - base["p99_ms"]
    return row


def _level_sweep(
    figure: FigureResult,
    runner,
    qps_levels: Sequence[float],
    levels: Sequence,
    common_for,
    build_scenario,
    task_label,
    row_label,
    extra_column,
) -> None:
    """Shared shape of figures 5–7: per QPS, a standalone baseline plus one
    run per swept level, batched together and regrouped positionally.

    ``build_scenario(level, **common)`` builds the spec, ``task_label`` /
    ``row_label`` name a level's run, and ``extra_column(level)`` yields the
    figure-specific ``(column, value)`` annotation.
    """
    labeled = []
    for qps in qps_levels:
        common = common_for(qps)
        labeled.append(("standalone", scenarios.standalone(**common)))
        for level in levels:
            labeled.append((task_label(level), build_scenario(level, **common)))
    results = _batch(runner, labeled)
    stride = 1 + len(levels)
    for index, qps in enumerate(qps_levels):
        group = results[stride * index: stride * (index + 1)]
        base = group[0]
        for level, run in zip(levels, group[1:]):
            row = _latency_row(row_label(level), qps, run, baseline=base)
            column, value = extra_column(level)
            row[column] = value
            figure.rows.append(row)


def figure_from_scenario(
    name: str,
    grid: Optional[Dict[str, Sequence]] = None,
    runner=None,
    **common,
) -> FigureResult:
    """Render any registered matrix scenario as a figure table.

    Bridges the declarative catalog (:mod:`repro.experiments.matrix`) into the
    same :class:`FigureResult` shape the per-paper-figure harnesses return, so
    benchmarks and examples can print matrix scenarios with
    :func:`repro.experiments.reporting.print_figure`.
    """
    from .matrix import run_scenario

    result = run_scenario(name, runner=runner, grid=grid, **common)
    figure = FigureResult(
        figure_id=f"matrix/{name}",
        title=result.scenario.description,
        rows=result.rows(),
    )
    if result.scenario.tags:
        figure.notes.append(f"tags: {', '.join(result.scenario.tags)}")
    return figure


# --------------------------------------------------------------------- Fig 4
def fig4_no_isolation(
    qps_levels: Sequence[float] = (scenarios.AVERAGE_LOAD_QPS, scenarios.PEAK_LOAD_QPS),
    duration: float = 5.0,
    warmup: float = 1.0,
    seed: int = 1,
    runner=None,
) -> FigureResult:
    """Figure 4: standalone vs unrestricted mid/high secondary (latency + CPU)."""
    figure = FigureResult(
        figure_id="fig4",
        title="Standalone vs colocation with an unrestricted secondary",
    )
    labeled = []
    for qps in qps_levels:
        common = dict(qps=qps, duration=duration, warmup=warmup, seed=seed)
        labeled.append(("standalone", scenarios.standalone(**common)))
        labeled.append(
            ("mid-secondary", scenarios.no_isolation(scenarios.MID_BULLY_THREADS, **common))
        )
        labeled.append(
            ("high-secondary", scenarios.no_isolation(scenarios.HIGH_BULLY_THREADS, **common))
        )
    results = _batch(runner, labeled)
    for index, qps in enumerate(qps_levels):
        base, mid, high = results[3 * index: 3 * index + 3]
        figure.rows.append(_latency_row("standalone", qps, base))
        figure.rows.append(_latency_row("mid-secondary", qps, mid, baseline=base))
        figure.rows.append(_latency_row("high-secondary", qps, high, baseline=base))
    figure.notes.append(
        "paper: mid raises P99 by up to 42%, high by up to 29x with 11-32% of queries dropped"
    )
    return figure


# --------------------------------------------------------------------- Fig 5
def fig5_blind_isolation(
    buffer_levels: Sequence[int] = (4, 8),
    qps_levels: Sequence[float] = (scenarios.AVERAGE_LOAD_QPS, scenarios.PEAK_LOAD_QPS),
    duration: float = 5.0,
    warmup: float = 1.0,
    seed: int = 1,
    runner=None,
) -> FigureResult:
    """Figure 5: blind isolation with 4 and 8 buffer cores (degradation + CPU)."""
    figure = FigureResult(
        figure_id="fig5",
        title="CPU blind isolation: latency degradation vs buffer size",
    )
    _level_sweep(
        figure,
        runner,
        qps_levels,
        buffer_levels,
        lambda qps: dict(qps=qps, duration=duration, warmup=warmup, seed=seed),
        scenarios.blind_isolation,
        lambda cores: f"blind-{cores}",
        lambda cores: f"blind-{cores}-buffers",
        lambda cores: ("buffer_cores", cores),
    )
    figure.notes.append("paper: 8 buffer cores keep the P99 within 1 ms of standalone")
    return figure


# --------------------------------------------------------------------- Fig 6
def fig6_static_cores(
    core_levels: Sequence[int] = (24, 16, 8),
    qps_levels: Sequence[float] = (scenarios.AVERAGE_LOAD_QPS, scenarios.PEAK_LOAD_QPS),
    duration: float = 5.0,
    warmup: float = 1.0,
    seed: int = 1,
    runner=None,
) -> FigureResult:
    """Figure 6: statically restricting the secondary's CPU cores."""
    figure = FigureResult(
        figure_id="fig6",
        title="Static core restriction of the secondary",
    )
    _level_sweep(
        figure,
        runner,
        qps_levels,
        core_levels,
        lambda qps: dict(qps=qps, duration=duration, warmup=warmup, seed=seed),
        scenarios.static_cores,
        lambda cores: f"cores-{cores}",
        lambda cores: f"{cores}-cores",
        lambda cores: ("secondary_cores", cores),
    )
    figure.notes.append(
        "paper: 8 cores protect the SLO even at peak but cap the secondary at ~17% of CPU time"
    )
    return figure


# --------------------------------------------------------------------- Fig 7
def fig7_cpu_cycles(
    fractions: Sequence[float] = (0.45, 0.25, 0.05),
    qps_levels: Sequence[float] = (scenarios.AVERAGE_LOAD_QPS, scenarios.PEAK_LOAD_QPS),
    duration: float = 5.0,
    warmup: float = 1.0,
    seed: int = 1,
    runner=None,
) -> FigureResult:
    """Figure 7: restricting the secondary's CPU cycles (latency, CPU, drops)."""
    figure = FigureResult(
        figure_id="fig7",
        title="CPU cycle (duty-cycle) restriction of the secondary",
    )
    _level_sweep(
        figure,
        runner,
        qps_levels,
        fractions,
        lambda qps: dict(qps=qps, duration=duration, warmup=warmup, seed=seed),
        scenarios.cpu_cycles,
        lambda fraction: f"cycles-{int(fraction * 100)}",
        lambda fraction: f"{int(fraction * 100)}%-cycles",
        lambda fraction: ("cpu_fraction_pct", fraction * 100.0),
    )
    figure.notes.append(
        "paper: cycle throttling always degrades latency and always drops some queries"
    )
    return figure


# --------------------------------------------------------------------- Fig 8
def fig8_comparison(
    qps: float = scenarios.AVERAGE_LOAD_QPS,
    duration: float = 5.0,
    warmup: float = 1.0,
    seed: int = 1,
    buffer_cores: int = 8,
    static_secondary_cores: int = 8,
    cycle_fraction: float = 0.05,
    runner=None,
) -> FigureResult:
    """Figure 8: P99 latency, idle CPU and secondary progress per approach."""
    comparison = IsolationComparison(
        qps=qps,
        duration=duration,
        warmup=warmup,
        seed=seed,
        buffer_cores=buffer_cores,
        static_secondary_cores=static_secondary_cores,
        cycle_fraction=cycle_fraction,
        runner=runner,
    )
    result = comparison.run()
    figure = FigureResult(
        figure_id="fig8",
        title="Comparison of isolation approaches (high secondary, 2,000 QPS)",
        rows=result.as_table(),
    )
    figure.notes.append(
        "paper: blind isolation and CPU cores both protect tail latency; blind leaves ~13% "
        "less CPU idle and gives the secondary ~17% more work; CPU cycles fails"
    )
    return figure


def _run_cluster_case(label: str, scenario: ClusterScenario):
    """Module-level worker entry point so cluster cases can cross processes."""
    return SimulatedCluster(scenario, name=label).run()


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
    from ..runtime.runner import default_runner
    from ..runtime.spec_hash import versioned_namespace

    cluster = ClusterSpec(partitions=partitions, rows=rows, tla_machines=tla_machines)
    node = scenarios.base_spec(qps=total_qps / rows, duration=duration, warmup=warmup, seed=seed)
    perfiso = PerfIsoSpec(
        cpu_policy="blind",
        blind=BlindIsolationSpec(buffer_cores=buffer_cores),
        io_throttle=IoThrottleSpec(),
    )
    figure = FigureResult(
        figure_id="fig9",
        title="Cluster latency per layer (standalone / CPU-bound / disk-bound secondary)",
    )
    cases = {
        "standalone": ClusterScenario(
            cluster=cluster, node=node, perfiso=None, hdfs=HdfsSpec(),
            total_qps=total_qps, duration=duration, warmup=warmup, seed=seed,
        ),
        "cpu-bound secondary": ClusterScenario(
            cluster=cluster, node=node, perfiso=perfiso, cpu_bully=CpuBullySpec(),
            hdfs=HdfsSpec(), total_qps=total_qps, duration=duration, warmup=warmup, seed=seed,
        ),
        "disk-bound secondary": ClusterScenario(
            cluster=cluster, node=node, perfiso=perfiso, disk_bully=DiskBullySpec(),
            hdfs=HdfsSpec(), total_qps=total_qps, duration=duration, warmup=warmup, seed=seed,
        ),
    }
    active = runner if runner is not None else default_runner()
    results = active.map(
        _run_cluster_case,
        [(label, scenario) for label, scenario in cases.items()],
        cache_namespace=versioned_namespace("cluster"),
    )
    for label, result in zip(cases, results):
        row: Dict[str, object] = {"scenario": label}
        row.update(result.summary())
        figure.rows.append(row)
    figure.notes.append(
        "paper: with PerfIso the per-layer P99 stays within ~1.2 ms of the standalone cluster"
    )
    return figure


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


# ----------------------------------------------------------------- headline
def headline_utilization(
    qps: float = scenarios.AVERAGE_LOAD_QPS,
    duration: float = 5.0,
    warmup: float = 1.0,
    seed: int = 1,
    runner=None,
) -> FigureResult:
    """The abstract's headline: average CPU utilisation 21% -> 66% at off-peak load."""
    common = dict(qps=qps, duration=duration, warmup=warmup, seed=seed)
    base, colocated = _batch(
        runner,
        [
            ("standalone", scenarios.standalone(**common)),
            ("blind-8", scenarios.blind_isolation(8, **common)),
        ],
    )
    figure = FigureResult(
        figure_id="headline",
        title="Average CPU utilisation with and without colocation (off-peak load)",
    )
    for label, result in (("standalone", base), ("colocated+blind-isolation", colocated)):
        summary = result.summary()
        figure.rows.append(
            {
                "configuration": label,
                "busy_cpu_pct": 100.0 - summary["idle_cpu_pct"],
                "primary_cpu_pct": summary["primary_cpu_pct"],
                "secondary_cpu_pct": summary["secondary_cpu_pct"],
                "p99_ms": summary["p99_ms"],
            }
        )
    figure.notes.append("paper: 21% -> 66% average CPU utilisation without impacting tail latency")
    return figure
