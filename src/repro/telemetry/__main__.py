"""``python -m repro.telemetry`` — validate a JSONL telemetry stream.

The CI smoke step runs a scenario with ``--telemetry`` and then checks the
stream with::

    python -m repro.telemetry --validate run.jsonl --min-snapshots 10 \\
        --min-spans 1

Exit code 0 means every record validated against the versioned schema and the
floors held; 2 reports the first schema violation or a floor breach.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..errors import TelemetryError
from .log import get_logger
from .schema import validate_stream_file


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Validate a JSONL telemetry stream against the schema.",
    )
    parser.add_argument("--validate", metavar="PATH", required=True, help="stream to check")
    parser.add_argument(
        "--min-snapshots", type=int, default=0, help="fail below this many snapshots"
    )
    parser.add_argument(
        "--min-spans", type=int, default=0, help="fail below this many spans"
    )
    parser.add_argument(
        "--require-span",
        action="append",
        default=[],
        metavar="NAME",
        help="require at least one span with this name (repeatable)",
    )
    args = parser.parse_args(argv)

    logger = get_logger("repro.telemetry")
    try:
        summary = validate_stream_file(args.validate)
    except (OSError, TelemetryError) as error:
        logger.error("stream invalid", path=args.validate, error=str(error))
        return 2
    problems = []
    if summary.snapshots < args.min_snapshots:
        problems.append(
            f"snapshots {summary.snapshots} < required {args.min_snapshots}"
        )
    if summary.spans < args.min_spans:
        problems.append(f"spans {summary.spans} < required {args.min_spans}")
    for name in args.require_span:
        if not summary.span_names.get(name):
            problems.append(f"no span named {name!r}")
    if problems:
        logger.error("stream below floors", path=args.validate, problems="; ".join(problems))
        return 2
    print(
        f"{args.validate}: {summary.records} records ok "
        f"({summary.snapshots} snapshots, {summary.spans} spans, "
        f"{summary.logs} logs, source={summary.meta.get('source', '?')})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
