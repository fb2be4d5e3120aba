"""The ``python -m repro.fleet`` command line.

Runs the canonical heterogeneous fleet (or any ``kind="fleet"`` scenario
from the matrix catalog) through the staged-rollout simulation and prints
per-stage accounting as a table, JSON, JSONL or CSV.  Output is a pure
function of the spec: serial runs, ``--workers N`` runs and repeats on
cached calibrations (shards are always recomputed) emit byte-identical
bytes.  ``--bundle DIR`` additionally captures the run as a versioned
artifact bundle (:mod:`repro.reporting.bundle`).
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from ..cli import (
    EXIT_FAILURES,
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
from ..errors import ConfigError, ReproError
from ..experiments.reporting import format_table

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
    parser.add_argument("--list", action="store_true", help="list the fleet scenario catalog")
    parser.add_argument(
        "--scenario",
        metavar="NAME[,NAME...]",
        default=None,
        help="run one or more registered fleet scenarios (comma separated) "
        "instead of the default fleet; a failing scenario is reported in an "
        "error table, the rest still run",
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


def _fleet_catalog_rows() -> List[dict]:
    from ..experiments import matrix

    rows = []
    for item in matrix.iter_scenarios():
        if item.kind != "fleet":
            continue
        axes = "; ".join(
            f"{axis}={','.join(str(v) for v in values)}" for axis, values in item.axes
        )
        rows.append(
            {
                "scenario": item.name,
                "variants": item.variant_count(),
                "axes": axes or "-",
                "description": item.description,
            }
        )
    return rows


#: Flags that shape the default fleet and are therefore meaningless (and
#: silently confusing) when a catalog scenario defines the whole spec.
_SCENARIO_INCOMPATIBLE = (
    "machines",
    "stages",
    "policy",
    "strategy",
    "guardrail",
    "buckets",
    "samples",
    "sample_fraction",
    "min_sampled",
    "calibration_qps",
    "calibration_duration",
    "calibration_warmup",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        print(format_table(_fleet_catalog_rows()))
        return EXIT_OK

    from ..runtime.runner import ExperimentRunner

    runner = (
        ExperimentRunner(max_workers=args.workers) if args.workers is not None else None
    )

    telemetry = None
    if args.telemetry:
        from ..telemetry import TelemetrySession

        telemetry = TelemetrySession.to_path(
            args.telemetry,
            source="fleet",
            meta={"scenario": args.scenario or "default-fleet"},
        )

    def _execute():
        if args.scenario is not None:
            overridden = [
                "--" + name.replace("_", "-")
                for name in _SCENARIO_INCOMPATIBLE
                if getattr(args, name) != parser.get_default(name)
            ]
            if overridden:
                raise ConfigError(
                    f"--scenario runs the catalog definition of {args.scenario!r}; "
                    f"{', '.join(overridden)} would be ignored — drop them, or "
                    "build a custom fleet without --scenario"
                )
            return _run_catalog_scenarios(args, runner, telemetry)
        rows, hashes = _run_default_fleet(args, runner, telemetry)
        return rows, [], hashes

    try:
        fmt, out_path = resolve_output(args.out, args.format)
        if args.profile:
            from ..telemetry.profiling import run_profiled

            rows, failures, spec_hashes = run_profiled(_execute, args.profile)
        else:
            rows, failures, spec_hashes = _execute()
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
            name=args.scenario or "default-fleet",
            rows=rows,
            fmt=fmt if fmt != "table" else "json",
            seeds=[args.seed],
            spec_hashes=spec_hashes,
            meta={"scenario": args.scenario or "default-fleet"},
        )
    if failures:
        print(f"\n== {len(failures)} scenarios failed ==")
        print(format_table(failures, columns=["scenario", "error"]))
        return EXIT_FAILURES
    return EXIT_OK


def _run_catalog_scenarios(args, runner, telemetry=None):
    """Run every requested catalog scenario, isolating per-scenario failures.

    Returns ``(rows, failures, spec_hashes)``: the concatenated result rows
    of every scenario that completed, one ``{"scenario", "error"}`` row per
    scenario that raised, and the content hash of every spec that ran —
    completed work is always flushed, and the CLI exits non-zero when
    ``failures`` is non-empty.
    """
    from ..experiments import matrix
    from ..runtime import spec_hash
    from ..runtime.runner import default_runner
    from ..telemetry.log import get_logger

    names = [name.strip() for name in args.scenario.split(",") if name.strip()]
    if not names:
        raise ConfigError("--scenario expects at least one scenario name")
    # Unknown or non-fleet names are caller mistakes: reject the whole
    # invocation (exit 2) before running anything.  Failures *during* a run
    # are isolated per scenario below (exit 1, partial results flushed).
    for name in names:
        if matrix.get_scenario(name).kind != "fleet":
            raise ConfigError(
                f"scenario {name!r} is not a fleet scenario; "
                "use python -m repro.experiments.matrix to run it"
            )
    active = runner if runner is not None else default_runner()
    rows: List[dict] = []
    failures: List[dict] = []
    hashes: List[str] = []
    for name in names:
        try:
            result = matrix.run_scenario(
                name, runner=active, telemetry=telemetry, seed=args.seed
            )
            rows.extend(result.rows())
            hashes.extend(spec_hash(variant.spec) for variant in result.variants)
        except Exception as error:
            get_logger("repro.fleet").error(
                "scenario failed", scenario=name, error=str(error)
            )
            failures.append(
                {"scenario": name, "error": f"{type(error).__name__}: {error}"}
            )
    return rows, failures, hashes


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
