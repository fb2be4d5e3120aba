"""Shared command-line fragments and the uniform CLI contract.

Every ``python -m repro.*`` entry point (matrix, fleet, showdown, workloads,
reporting) builds its parser from the canonical fragments below, so the same
flag means the same thing wherever it is accepted.  ``matrix``, ``fleet`` and
``showdown`` take all six; ``reporting`` takes ``--workers``, ``--seed``,
``--bundle`` and ``--out``; ``workloads`` takes ``--seed`` and ``--bundle``,
and its own ``--out PATH`` names the trace file it writes:

* ``--workers N`` — worker process count (0/1 forces serial; results are
  byte-identical at any value).
* ``--out PATH|FORMAT`` — where and how rows go.  A format keyword
  (``table``/``json``/``jsonl``/``csv``) prints that format to stdout; a
  path writes the rows to that file in the format its extension names
  (``.json``/``.jsonl``/``.csv``/``.txt``).  Without ``--out`` rows print
  to stdout as a table.
* ``--telemetry [PATH]`` — stream JSONL telemetry to PATH.
* ``--profile PATH`` — run under cProfile, write a cumulative-time report.
* ``--seed N`` — the base seed.
* ``--bundle DIR`` — additionally emit a versioned run-artifact bundle
  (see :mod:`repro.reporting.bundle`).

**Exit-code contract**, enforced uniformly:

* ``0`` — everything ran.
* ``1`` — the invocation was valid but one or more *isolated* scenario runs
  failed; completed results are still flushed.
* ``2`` — caller error (unknown scenario, malformed flag, invalid config):
  rejected before any work runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..reporting.rows import render_rows

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURES",
    "EXIT_USAGE",
    "OUTPUT_FORMATS",
    "add_workers_option",
    "add_seed_option",
    "add_profile_option",
    "add_telemetry_option",
    "add_output_options",
    "add_bundle_option",
    "resolve_output",
    "render_output",
    "write_output",
    "parse_grid",
]

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2

#: Row renderings the shared ``--out`` fragment understands.
OUTPUT_FORMATS = ("table", "json", "jsonl", "csv")

#: Extension → format inference for ``--out PATH``.
_SUFFIX_FORMATS = {".json": "json", ".jsonl": "jsonl", ".csv": "csv", ".txt": "table"}


# ------------------------------------------------------------------ fragments
def add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None, help="worker process count"
    )


def add_seed_option(
    parser: argparse.ArgumentParser, default: Optional[int], help: str = "the base seed"
) -> None:
    parser.add_argument("--seed", type=int, default=default, help=help)


def add_profile_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="run under cProfile and write a cumulative-time report to PATH",
    )


def add_telemetry_option(parser: argparse.ArgumentParser, detail: str = "") -> None:
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.jsonl",
        default=None,
        metavar="PATH",
        help="stream JSONL telemetry to PATH (default telemetry.jsonl)"
        + (f"; {detail}" if detail else ""),
    )


def add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH|FORMAT",
        help="output file path (format inferred from the extension), or one "
        f"of {'/'.join(OUTPUT_FORMATS)} to print that format to stdout",
    )


def add_bundle_option(parser: argparse.ArgumentParser, default: Optional[str] = None) -> None:
    parser.add_argument(
        "--bundle",
        metavar="DIR",
        default=default,
        help="additionally write a versioned run-artifact bundle to DIR"
        + (f" (default {default})" if default else ""),
    )


# ----------------------------------------------------------------- resolution
def resolve_output(out: Optional[str]) -> Tuple[str, Optional[Path]]:
    """Resolve the shared ``--out`` value to ``(format, path)``.

    ``path`` is ``None`` for stdout.  An ``--out`` path whose extension
    names no format is a caller error.
    """
    if out is None:
        return "table", None
    if out in OUTPUT_FORMATS:
        return out, None
    path = Path(out)
    inferred = _SUFFIX_FORMATS.get(path.suffix.lower())
    if inferred is None:
        raise ConfigError(
            f"cannot infer an output format from {out!r}; pass one of "
            f"{'|'.join(OUTPUT_FORMATS)} or a .json/.jsonl/.csv/.txt path"
        )
    return inferred, path


def render_output(
    rows: Sequence[Dict[str, Any]], fmt: str, columns: Optional[Sequence[str]] = None
) -> str:
    """Render rows in any shared output format, trailing newline included."""
    if fmt == "table":
        from ..experiments.reporting import format_table

        return format_table(rows, columns) + "\n"
    return render_rows(rows, fmt, columns=columns)


def write_output(text: str, path: Optional[Path]) -> None:
    """Write rendered output to ``path``, or stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# ----------------------------------------------------------------------- grid
def _parse_grid_value(text: str) -> Any:
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def parse_grid(entries: Sequence[str]) -> Dict[str, Tuple[Any, ...]]:
    """Parse repeated ``--grid axis=v1,v2`` flags into an axis-override map."""
    grid: Dict[str, Tuple[Any, ...]] = {}
    for entry in entries:
        axis, sep, values = entry.partition("=")
        if not sep or not axis or not values:
            raise ConfigError(f"--grid expects axis=v1,v2,..., got {entry!r}")
        grid[axis] = tuple(_parse_grid_value(value) for value in values.split(","))
    return grid
