"""The ``python -m repro.fleet`` command line.

Builds the canonical heterogeneous fleet from its flags, runs it through the
staged-rollout simulation and prints per-stage accounting as a table, JSON,
JSONL or CSV.  The catalog's ``kind="fleet"`` scenarios run through
``python -m repro.experiments.matrix --run`` like every other scenario.
Output is a pure function of the spec: serial runs, ``--workers N`` runs and
repeats on cached calibrations (shards are always recomputed) emit
byte-identical bytes.  ``--bundle DIR`` additionally captures the run as a
versioned artifact bundle (:mod:`repro.reporting.bundle`).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..cli import (
    EXIT_OK,
    EXIT_USAGE,
    add_bundle_option,
    add_output_options,
    add_profile_option,
    add_seed_option,
    add_telemetry_option,
    add_workers_option,
    render_output,
    resolve_output,
    write_output,
)
from ..errors import ReproError

__all__ = ["main"]


def _parse_qps_list(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects Q1,Q2,..., got {text!r}"
        ) from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Simulate a staged PerfIso rollout across a machine fleet.",
    )
    parser.add_argument("--machines", type=int, default=2000, help="total fleet size")
    parser.add_argument("--stages", type=int, default=3, help="rollout stage count")
    parser.add_argument(
        "--policy",
        default="blind",
        help="CPU policy the rollout ships (blind/static_cores/cpu_cycles/none)",
    )
    parser.add_argument(
        "--strategy",
        default="first_fit",
        help="placement strategy (first_fit/best_fit/worst_fit)",
    )
    parser.add_argument(
        "--guardrail", type=float, default=1.5, help="P99 guardrail multiplier"
    )
    parser.add_argument("--buckets", type=int, default=4, help="buckets per stage and bake")
    parser.add_argument(
        "--samples", type=int, default=32, help="latency samples per machine per bucket"
    )
    parser.add_argument(
        "--sample-fraction",
        type=float,
        default=1.0,
        help=(
            "fraction of each machine group drawn per-machine (1.0 = exact "
            "mode; below 1.0 enables sampled hyperscale mode)"
        ),
    )
    parser.add_argument(
        "--min-sampled",
        type=int,
        default=256,
        help="floor on sampled machines per group and colocation class",
    )
    parser.add_argument(
        "--calibration-qps",
        type=_parse_qps_list,
        default=None,
        metavar="Q1,Q2",
        help="calibration load points (comma separated)",
    )
    parser.add_argument(
        "--calibration-duration", type=float, default=None, help="calibration run length (s)"
    )
    parser.add_argument(
        "--calibration-warmup", type=float, default=None, help="calibration warmup (s)"
    )
    add_workers_option(parser)
    add_seed_option(parser, default=7, help="fleet seed")
    add_output_options(parser)
    add_profile_option(parser)
    add_telemetry_option(
        parser, detail="per-bucket fleet snapshots and rollout stage spans"
    )
    add_bundle_option(parser)
    return parser


#: The bundle name and telemetry label of the fleet this CLI builds.
_DEFAULT_FLEET = "default-fleet"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    from ..runtime.runner import ExperimentRunner

    runner = (
        ExperimentRunner(max_workers=args.workers) if args.workers is not None else None
    )

    telemetry = None
    if args.telemetry:
        from ..telemetry import TelemetrySession

        telemetry = TelemetrySession.to_path(
            args.telemetry, source="fleet", meta={"scenario": _DEFAULT_FLEET}
        )

    try:
        fmt, out_path = resolve_output(args.out)
        if args.profile:
            from ..telemetry.profiling import run_profiled

            rows, spec_hashes = run_profiled(
                lambda: _run_default_fleet(args, runner, telemetry), args.profile
            )
        else:
            rows, spec_hashes = _run_default_fleet(args, runner, telemetry)
    except ReproError as error:
        from ..telemetry.log import get_logger

        get_logger("repro.fleet").error("command failed", error=str(error))
        return EXIT_USAGE
    finally:
        if telemetry is not None:
            telemetry.close()

    write_output(render_output(rows, fmt), out_path)
    if args.bundle:
        from ..reporting.bundle import write_bundle

        write_bundle(
            args.bundle,
            kind="fleet",
            name=_DEFAULT_FLEET,
            rows=rows,
            fmt=fmt if fmt != "table" else "json",
            seeds=[args.seed],
            spec_hashes=spec_hashes,
            meta={"scenario": _DEFAULT_FLEET},
        )
    return EXIT_OK


def _run_default_fleet(args, runner, telemetry=None):
    from ..runtime import spec_hash
    from .scenarios import default_fleet_spec
    from .simulate import FleetSimulation

    spec = default_fleet_spec(
        machines=args.machines,
        stages=args.stages,
        seed=args.seed,
        target_policy=args.policy,
        guardrail=args.guardrail,
        strategy=args.strategy,
        calibration_qps=args.calibration_qps,
        calibration_duration=args.calibration_duration,
        calibration_warmup=args.calibration_warmup,
        bake_buckets=args.buckets,
        stage_buckets=args.buckets,
        samples_per_machine_bucket=args.samples,
        sample_fraction=args.sample_fraction,
        min_sampled_machines=args.min_sampled,
    )
    result = FleetSimulation(spec, runner=runner, telemetry=telemetry).run()
    rows = result.rows()
    totals = {"stage": "total"}
    totals.update(result.totals())
    rows.append(totals)
    return rows, [spec_hash(spec)]
