"""The controller showdown: every CPU controller raced on shared traffic.

``CpuIsolationPolicy`` is a dynamic-controller interface, with four
challengers (PID, MPC, utilization-target, oracle) next to the paper's
blind/static/cycles policies.  This harness answers the obvious question —
*which controller wins?* — by racing every controller across the
trace-driven workload shapes (diurnal, bursty, flash crowd, replayed trace)
under identical seeds, traces and bully pressure, then ranking them on SLO
attainment, tail latency and harvested secondary throughput.

The race is the ``controller-showdown`` catalog scenario run over a
(workload, controller) grid on the shared :class:`ExperimentRunner`, so
repeated invocations are served from the content-addressed cache and the
emitted table is byte-identical at any worker count.

Run it directly::

    python -m repro.experiments.showdown --controllers blind,pid,oracle \
        --workloads flash_crowd --duration 2 --out table
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ...config.schema import (
    ControllerCrashSpec,
    DegradedCoreSpec,
    FaultPlanSpec,
    TelemetryFaultSpec,
)
from ...errors import ConfigError
from ...reporting.rows import rows_to_csv, rows_to_jsonl
from ...runtime import ExperimentRunner, spec_hash
from ..matrix import run_scenario
from ..reporting import format_table
from ..scenarios import CONTROLLER_POLICIES, SHOWDOWN_WORKLOADS

__all__ = ["ShowdownResult", "default_chaos_plan", "run_showdown", "main"]

#: Columns of the per-run detail table, in emission order.
DETAIL_COLUMNS = (
    "workload",
    "controller",
    "p99_ms",
    "slo_ms",
    "p99_over_slo",
    "slo_met",
    "drop_rate_pct",
    "secondary_progress",
    "updates_applied",
    "polls",
)

#: Columns of the aggregated ranking table.
RANKING_COLUMNS = (
    "rank",
    "controller",
    "slo_met",
    "workloads",
    "mean_p99_over_slo",
    "worst_p99_ms",
    "secondary_progress",
    "updates_applied",
)


@dataclass
class ShowdownResult:
    """Everything the showdown measured, already flattened for reporting."""

    #: One row per (workload, controller) run, in deterministic order.
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: One row per controller, best first.
    ranking: List[Dict[str, object]] = field(default_factory=list)
    #: Content hash of every cell spec that ran, in grid order.
    spec_hashes: List[str] = field(default_factory=list)

    def winner(self) -> str:
        if not self.ranking:
            raise ConfigError("showdown produced no ranking")
        return str(self.ranking[0]["controller"])


def default_chaos_plan(duration: float = 10.0, warmup: float = 1.0) -> FaultPlanSpec:
    """The chaos-showdown fault plan, scaled to the run window.

    Three sequential, non-overlapping incidents: a degraded-core straggler
    window early, a telemetry dropout mid-run, and a controller crash late —
    so a controller's ranking reflects how it rides out each failure mode,
    not just how it performs while everything is healthy.
    """
    return FaultPlanSpec(
        degraded=DegradedCoreSpec(
            slowdown=1.5, start=warmup + 0.1 * duration, duration=0.25 * duration
        ),
        telemetry=TelemetryFaultSpec(
            mode="missing", start=warmup + 0.45 * duration, duration=0.2 * duration
        ),
        controller_crash=ControllerCrashSpec(
            at=warmup + 0.75 * duration, recovery_delay=min(0.05, 0.02 * duration)
        ),
    )


def run_showdown(
    controllers: Sequence[str] = CONTROLLER_POLICIES,
    workloads: Sequence[str] = SHOWDOWN_WORKLOADS,
    duration: float = 10.0,
    warmup: float = 1.0,
    seed: int = 1,
    slo_ms: float = 15.0,
    base_qps: Optional[float] = None,
    peak_qps: Optional[float] = None,
    runner: Optional[ExperimentRunner] = None,
    telemetry=None,
    faults: Optional[FaultPlanSpec] = None,
) -> ShowdownResult:
    """Race ``controllers`` across ``workloads`` and rank them.

    One run of the ``controller-showdown`` scenario over the (workload,
    controller) grid, workload-major.  Every cell is built from the same
    ``seed``, so within one workload shape the controllers replay identical
    traffic — the ranking isolates the policy, nothing else.

    ``faults`` injects the identical fault plan into every cell (the chaos
    showdown), so resilience differences are attributable to the controller;
    the ``"none"`` policy's cells drop any ``controller_crash`` entry.
    ``telemetry`` (a :class:`~repro.telemetry.stream.TelemetrySession`) runs
    the grid serially in this process so probes can stream, labelled per
    cell; measured results are identical to the fanned-out run.
    """
    for kind, names in (("controller", controllers), ("workload", workloads)):
        if not names:
            raise ConfigError(f"showdown needs at least one {kind}")

    grid_run = run_scenario(
        "controller-showdown",
        runner=runner,
        grid={"workload": workloads, "policy": controllers},
        telemetry=telemetry,
        duration=duration,
        warmup=warmup,
        seed=seed,
        slo_ms=slo_ms,
        base_qps=base_qps,
        peak_qps=peak_qps,
        faults=faults,
    )
    result = ShowdownResult(spec_hashes=[spec_hash(v.spec) for v in grid_run.variants])
    for variant, run in zip(grid_run.variants, grid_run.results):
        cell = dict(variant.axis_values)
        p99_ms = run.latency.as_millis()["p99_ms"]
        result.rows.append(
            {
                "workload": cell["workload"],
                "controller": cell["policy"],
                "p99_ms": p99_ms,
                "slo_ms": slo_ms,
                "p99_over_slo": p99_ms / slo_ms,
                "slo_met": p99_ms <= slo_ms,
                "drop_rate_pct": run.drop_rate * 100.0,
                "secondary_progress": run.secondary_progress,
                "updates_applied": run.controller_updates,
                "polls": run.controller_polls,
            }
        )

    result.ranking = _rank(result.rows, controllers)
    return result


def _rank(
    rows: Sequence[Dict[str, object]], controllers: Sequence[str]
) -> List[Dict[str, object]]:
    """Aggregate per-run rows into one ranked row per controller.

    Primary objective is SLO attainment (how many workloads stayed under the
    SLO), then mean normalised tail latency, then harvested secondary
    throughput — the paper's "protect the primary first, harvest second"
    ordering.  Ties break on the controller name so the ranking is total.
    """
    ranking: List[Dict[str, object]] = []
    for controller in controllers:
        mine = [row for row in rows if row["controller"] == controller]
        if not mine:
            continue
        ratios = [float(row["p99_over_slo"]) for row in mine]
        ranking.append(
            {
                "controller": controller,
                "slo_met": sum(1 for row in mine if row["slo_met"]),
                "workloads": len(mine),
                "mean_p99_over_slo": sum(ratios) / len(ratios),
                "worst_p99_ms": max(float(row["p99_ms"]) for row in mine),
                "secondary_progress": sum(
                    float(row["secondary_progress"]) for row in mine
                ),
                "updates_applied": sum(int(row["updates_applied"]) for row in mine),
            }
        )
    ranking.sort(
        key=lambda row: (
            -int(row["slo_met"]),
            float(row["mean_p99_over_slo"]),
            -float(row["secondary_progress"]),
            str(row["controller"]),
        )
    )
    for position, row in enumerate(ranking, start=1):
        row["rank"] = position
    return ranking


def _csv_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _render_showdown(result: ShowdownResult, fmt: str) -> str:
    """Render the two-table showdown output in any shared format.

    The legacy stdout bytes of table/json/csv are load-bearing (CI and the
    README examples diff them), so each branch reproduces exactly what the
    old ``print`` pipeline emitted.
    """
    if fmt == "json":
        return (
            json.dumps(
                {"rows": result.rows, "ranking": result.ranking}, indent=2, sort_keys=True
            )
            + "\n"
        )
    if fmt == "jsonl":
        return rows_to_jsonl(result.rows) + rows_to_jsonl(result.ranking)
    if fmt == "csv":
        return (
            rows_to_csv(result.rows, columns=list(DETAIL_COLUMNS))
            + "\n"
            + rows_to_csv(result.ranking, columns=list(RANKING_COLUMNS))
            + "\n"
        )
    return (
        "Per-run results\n"
        + format_table(result.rows, columns=list(DETAIL_COLUMNS))
        + "\n\nController ranking (best first)\n"
        + format_table(result.ranking, columns=list(RANKING_COLUMNS))
        + f"\n\nwinner: {result.winner()}\n"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ...cli import (
        EXIT_OK,
        EXIT_USAGE,
        add_bundle_option,
        add_output_options,
        add_profile_option,
        add_seed_option,
        add_telemetry_option,
        add_workers_option,
        resolve_output,
        write_output,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.showdown",
        description="Race every CPU controller across trace-driven workloads.",
    )
    parser.add_argument(
        "--controllers",
        default=",".join(CONTROLLER_POLICIES),
        help=f"comma-separated controllers (default: all of {','.join(CONTROLLER_POLICIES)})",
    )
    parser.add_argument(
        "--workloads",
        default=",".join(SHOWDOWN_WORKLOADS),
        help=f"comma-separated workload shapes (default: {','.join(SHOWDOWN_WORKLOADS)})",
    )
    parser.add_argument("--duration", type=float, default=10.0, help="measured seconds per run")
    parser.add_argument("--warmup", type=float, default=1.0, help="warm-up seconds per run")
    add_seed_option(parser, default=1, help="experiment seed shared by every cell")
    parser.add_argument("--slo-ms", type=float, default=15.0, help="P99 SLO in milliseconds")
    parser.add_argument("--base-qps", type=float, default=None, help="override the base load")
    parser.add_argument("--peak-qps", type=float, default=None, help="override the peak load")
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject the default chaos fault plan (degraded cores, telemetry "
        "dropout, controller crash) into every cell",
    )
    add_workers_option(parser)
    add_output_options(parser)
    add_profile_option(parser)
    add_telemetry_option(
        parser, detail="cells run serially in-process while instrumented"
    )
    add_bundle_option(parser)
    args = parser.parse_args(argv)

    telemetry = None
    if args.telemetry:
        from ...telemetry import TelemetrySession

        telemetry = TelemetrySession.to_path(args.telemetry, source="showdown")

    def _execute():
        return run_showdown(
            controllers=_csv_list(args.controllers),
            workloads=_csv_list(args.workloads),
            duration=args.duration,
            warmup=args.warmup,
            seed=args.seed,
            slo_ms=args.slo_ms,
            base_qps=args.base_qps,
            peak_qps=args.peak_qps,
            runner=ExperimentRunner(max_workers=args.workers),
            telemetry=telemetry,
            faults=(
                default_chaos_plan(args.duration, args.warmup) if args.chaos else None
            ),
        )

    try:
        fmt, out_path = resolve_output(args.out)
        if args.profile:
            from ...telemetry.profiling import run_profiled

            result = run_profiled(_execute, args.profile)
        else:
            result = _execute()
    except ConfigError as exc:
        from ...telemetry.log import get_logger

        get_logger("repro.experiments.showdown").error("command failed", error=str(exc))
        return EXIT_USAGE
    finally:
        if telemetry is not None:
            telemetry.close()

    write_output(_render_showdown(result, fmt), out_path)
    if args.bundle:
        from ...reporting.bundle import write_bundle

        write_bundle(
            args.bundle,
            kind="showdown",
            name="controller-showdown" + ("+chaos" if args.chaos else ""),
            rows=result.rows,
            fmt=fmt if fmt in ("json", "jsonl", "csv") else "json",
            summary=result.ranking,
            seeds=[args.seed],
            spec_hashes=result.spec_hashes,
            meta={
                "controllers": _csv_list(args.controllers),
                "workloads": _csv_list(args.workloads),
                "chaos": args.chaos,
                "winner": result.winner(),
            },
        )
    return EXIT_OK
