"""Campaigns and run-artifact bundles.

This package is the reporting layer that run results flow through:

* :mod:`repro.reporting.rows` — canonical row rendering (json/jsonl/csv)
  shared by every CLI and the bundle writer;
* :mod:`repro.reporting.bundle` — versioned, schema-validated run-artifact
  bundles (manifest + rows + digests) emitted by the matrix, fleet,
  showdown and workloads CLIs;
* :mod:`repro.reporting.campaign` — multi-seed replicate sweeps through the
  content-addressed runner, reporting per-metric mean/stddev/95% CI instead
  of single-seed point estimates.

The ``python -m repro.reporting`` CLI fronts all of it::

    # run a 5-seed replicate sweep, emit a bundle, print the CI table
    python -m repro.reporting --scenario fig8 --seeds 5

    # validate any bundle (schema version, digests, row counts)
    python -m repro.reporting --validate bundles/fig8
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..errors import ConfigError, ReportingError, TelemetryError
from .bundle import (
    BUNDLE_KINDS,
    BUNDLE_SCHEMA_VERSION,
    RunBundle,
    load_bundle,
    validate_bundle,
    write_bundle,
)
from .rows import ROW_FORMATS, render_rows, rows_to_csv, rows_to_json, rows_to_jsonl
from .stats import aggregate_rows, summarize, t_critical_95

__all__ = [
    "BUNDLE_KINDS",
    "BUNDLE_SCHEMA_VERSION",
    "RunBundle",
    "load_bundle",
    "validate_bundle",
    "write_bundle",
    "ROW_FORMATS",
    "render_rows",
    "rows_to_csv",
    "rows_to_json",
    "rows_to_jsonl",
    "aggregate_rows",
    "summarize",
    "t_critical_95",
    "main",
]

#: Column order of the printed campaign summary table.
SUMMARY_COLUMNS = (
    "scenario",
    "label",
    "metric",
    "n",
    "mean",
    "stddev",
    "ci95",
    "ci95_lo",
    "ci95_hi",
)


def _build_parser() -> argparse.ArgumentParser:
    from ..cli import (
        add_bundle_option,
        add_output_options,
        add_seed_option,
        add_workers_option,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting",
        description="Replicate campaigns and run-artifact bundles.",
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--scenario",
        metavar="NAME",
        help="run a multi-seed replicate campaign of one registered scenario",
    )
    action.add_argument(
        "--validate",
        metavar="DIR",
        help="validate a run-artifact bundle (schema version, digests, counts)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=5,
        metavar="N",
        help="replicate count for --scenario (default 5)",
    )
    add_seed_option(
        parser, default=1, help="base seed; replicate 0 runs it verbatim (default 1)"
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="AXIS=V1,V2",
        help="override one scenario axis grid (repeatable)",
    )
    parser.add_argument("--qps", type=float, default=None, help="override workload QPS")
    parser.add_argument("--duration", type=float, default=None, help="override duration (s)")
    parser.add_argument("--warmup", type=float, default=None, help="override warmup (s)")
    add_workers_option(parser)
    add_output_options(parser)
    add_bundle_option(parser)
    return parser


def _run_campaign_action(args) -> int:
    from ..cli import (
        EXIT_FAILURES,
        EXIT_OK,
        parse_grid,
        render_output,
        resolve_output,
        write_output,
    )
    from ..experiments.reporting import format_table
    from .campaign import make_campaign, run_campaign, write_campaign_bundle

    fmt, path = resolve_output(args.out)
    spec = make_campaign(
        args.scenario,
        replicates=args.seeds,
        base_seed=args.seed,
        grid=parse_grid(args.grid),
        qps=args.qps,
        duration=args.duration,
        warmup=args.warmup,
    )
    runner = None
    if args.workers is not None:
        from ..runtime import ExperimentRunner

        runner = ExperimentRunner(max_workers=args.workers)
    result = run_campaign(spec, runner=runner)

    bundle_dir = args.bundle or f"bundles/{args.scenario}"
    bundle_fmt = fmt if fmt in ROW_FORMATS else "json"
    write_campaign_bundle(result, bundle_dir, fmt=bundle_fmt)

    write_output(render_output(result.summary_rows(), fmt, columns=SUMMARY_COLUMNS), path)
    print(
        f"{len(result.replicates)} of {len(result.seeds)} replicates x "
        f"{result.variant_count} variants, {result.cache_hits} runs served "
        f"from cache; bundle: {bundle_dir}"
    )
    if result.failures:
        print(f"\n== {len(result.failures)} replicates failed ==")
        print(format_table(result.failures, columns=["replicate", "seed", "error"]))
        return EXIT_FAILURES
    return EXIT_OK


def _validate_action(args) -> int:
    from ..cli import EXIT_OK

    manifest = validate_bundle(args.validate)
    rows_entry = manifest["rows"]
    print(
        f"ok: {args.validate}: kind={manifest['kind']} name={manifest['name']} "
        f"schema={manifest['schema']} rows={rows_entry['count']} "
        f"files={len(manifest['files'])}"
    )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..cli import EXIT_USAGE
    from ..telemetry.log import get_logger

    args = _build_parser().parse_args(argv)
    log = get_logger("repro.reporting")
    try:
        if args.scenario:
            return _run_campaign_action(args)
        return _validate_action(args)
    except (ConfigError, ReportingError, TelemetryError) as error:
        log.error("command failed", error=str(error))
        return EXIT_USAGE
