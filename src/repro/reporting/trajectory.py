"""The trajectory report: perf history rendered from accumulated bundles.

Every bundle a run emits is one point of the project's performance history.
This module scans a directory tree for bundles (any directory holding a
``manifest.json``), validates and loads each one, and renders a flat
history table — one row per bundle, carrying the headline perf metrics
(events/s, fleet machines/s, fig8 wall time) wherever the bundle's bench
record provides them.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from ..errors import ReportingError
from .bundle import MANIFEST_NAME, RunBundle, load_bundle

__all__ = ["HEADLINE_METRICS", "collect_bundles", "trajectory_rows"]

#: Bench-record keys surfaced as trajectory columns, in column order.
HEADLINE_METRICS = (
    "events_per_s",
    "fig8_serial_uncached_s",
    "machines_per_s_parallel",
    "fleet_machines_per_s",
    "hyperscale_machines_per_s",
)


def collect_bundles(root) -> List[RunBundle]:
    """Load every bundle under ``root`` (recursively), in sorted path order.

    A directory containing a ``manifest.json`` is a bundle and must
    validate; a tree with no bundles yields an empty list.  ``root`` itself
    may be a single bundle directory.
    """
    root = Path(root)
    if not root.is_dir():
        raise ReportingError(f"{root}: no such directory")
    manifests = sorted(root.rglob(MANIFEST_NAME))
    return [load_bundle(path.parent) for path in manifests]


def trajectory_rows(
    bundles: Sequence[RunBundle],
    root: Optional[Path] = None,
) -> List[dict]:
    """One history row per bundle.

    Columns: the bundle's identity (path, kind, name, source digest, row
    and seed counts) plus every :data:`HEADLINE_METRICS` key its bench
    record carries as a number.  Rows follow the order of ``bundles``
    (sorted path order from :func:`collect_bundles`).
    """
    rows: List[dict] = []
    for bundle in bundles:
        directory = bundle.directory
        if root is not None:
            try:
                directory = directory.relative_to(root)
            except ValueError:
                pass
        row = {
            "bundle": str(directory),
            "kind": bundle.kind,
            "name": bundle.name,
            "source_digest": str(bundle.manifest.get("source_digest", "")),
            "rows": len(bundle.rows),
            "seeds": len(bundle.manifest.get("seeds", [])),
        }
        if isinstance(bundle.bench, dict):
            for metric in HEADLINE_METRICS:
                value = bundle.bench.get(metric)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    row[metric] = value
        rows.append(row)
    return rows
