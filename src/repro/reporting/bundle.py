"""Versioned run-artifact bundles: one directory per run, schema-checked.

Every matrix, fleet, showdown and campaign run can emit a *bundle* — a
directory holding a ``manifest.json`` plus the run's rows (json/jsonl/csv),
an optional aggregated ``summary.json`` (the campaign CI table) and any extra
artifacts (e.g. a synthesized trace file).  The manifest names the bundle
schema version, the producing kind, the digest of the package sources that
wrote it, the seeds and spec hashes behind the rows, the environment, and a
SHA-256 digest of every payload file — so a bundle is self-validating and a
stale or hand-edited one is refused instead of silently misread, mirroring
the telemetry stream's ``SCHEMA_VERSION`` discipline.

Bundles contain no wall-clock timestamps: a bundle is a pure function of the
specs and seeds that produced it, so re-running the same configuration at any
worker count rewrites byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import ReportingError
from .rows import ROW_FORMATS, parse_rows, render_rows

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "BUNDLE_KINDS",
    "MANIFEST_NAME",
    "RunBundle",
    "write_bundle",
    "load_bundle",
    "validate_bundle",
]

#: Version of the bundle manifest schema.  Bump on any incompatible change.
#: Version 2 replaced the package version with the source digest.
BUNDLE_SCHEMA_VERSION = 2

#: Producers a manifest may name.
BUNDLE_KINDS = ("matrix", "fleet", "showdown", "workloads", "campaign")

MANIFEST_NAME = "manifest.json"

#: Manifest keys that must always be present.
_REQUIRED_KEYS = (
    "schema",
    "kind",
    "name",
    "source_digest",
    "environment",
    "seeds",
    "spec_hashes",
    "rows",
    "files",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _environment() -> Dict[str, str]:
    """Toolchain identity recorded in every manifest.

    Deliberately excludes anything that varies between identical runs on the
    same machine (wall clock, pid, cwd): two runs of the same configuration
    must produce byte-identical manifests.
    """
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


@dataclass
class RunBundle:
    """A loaded (and digest-verified) run-artifact bundle."""

    directory: Path
    manifest: Dict[str, object]
    rows: List[dict]
    summary: List[dict] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return str(self.manifest["kind"])

    @property
    def name(self) -> str:
        return str(self.manifest["name"])


def write_bundle(
    directory,
    *,
    kind: str,
    name: str,
    rows: Sequence[Mapping[str, object]],
    fmt: str = "json",
    summary: Optional[Sequence[Mapping[str, object]]] = None,
    seeds: Sequence[int] = (),
    spec_hashes: Sequence[str] = (),
    meta: Optional[Mapping[str, object]] = None,
    extra_files: Optional[Mapping[str, bytes]] = None,
) -> Path:
    """Write a bundle under ``directory`` (created if missing); returns it.

    ``rows`` is the run's row table, rendered as ``rows.<fmt>``; ``summary``
    (always JSON) is the aggregated campaign table; ``extra_files`` maps file
    names to raw payloads (e.g. a synthesized trace).  The manifest is
    written last, so a crashed writer leaves a directory that fails
    validation rather than one that lies.
    """
    if kind not in BUNDLE_KINDS:
        raise ReportingError(f"unknown bundle kind {kind!r} (expected one of {BUNDLE_KINDS})")
    if fmt not in ROW_FORMATS:
        raise ReportingError(f"unknown row format {fmt!r} (expected one of {ROW_FORMATS})")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    files: Dict[str, bytes] = {}
    rows = [dict(row) for row in rows]
    rows_name = f"rows.{fmt}"
    files[rows_name] = render_rows(rows, fmt).encode("utf-8")

    manifest: Dict[str, object] = {
        "schema": BUNDLE_SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "source_digest": _source_digest(),
        "environment": _environment(),
        "seeds": [int(seed) for seed in seeds],
        "spec_hashes": sorted(set(str(h) for h in spec_hashes)),
        "rows": {"file": rows_name, "format": fmt, "count": len(rows)},
    }
    if summary is not None:
        summary = [dict(row) for row in summary]
        files["summary.json"] = render_rows(summary, "json").encode("utf-8")
        manifest["summary"] = {"file": "summary.json", "format": "json",
                               "count": len(summary)}
    for extra_name, payload in (extra_files or {}).items():
        if extra_name == MANIFEST_NAME or extra_name in files:
            raise ReportingError(f"duplicate bundle file name {extra_name!r}")
        files[extra_name] = bytes(payload)
    if meta:
        manifest["meta"] = dict(meta)

    for file_name, payload in files.items():
        (directory / file_name).write_bytes(payload)
    manifest["files"] = {
        file_name: {"sha256": _sha256(payload), "bytes": len(payload)}
        for file_name, payload in sorted(files.items())
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (directory / MANIFEST_NAME).write_text(manifest_text, encoding="utf-8")
    return directory


def _source_digest() -> str:
    """Digest of the package sources (the same one the cache keys carry)."""
    from ..runtime.spec_hash import source_digest

    return source_digest()


def validate_bundle(directory) -> Dict[str, object]:
    """Validate a bundle directory; returns its manifest or raises.

    Checks the manifest parses, carries the supported schema version and
    every required key, and that every listed payload file exists with the
    recorded size and SHA-256 digest — so truncation, hand edits and version
    skew are all refused with a precise reason.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ReportingError(f"{directory}: not a bundle (no {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReportingError(f"{manifest_path}: manifest is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ReportingError(f"{manifest_path}: manifest must be a JSON object")
    # The version comes first: another schema may name other keys.
    schema = manifest.get("schema")
    if schema != BUNDLE_SCHEMA_VERSION:
        raise ReportingError(
            f"{manifest_path}: unsupported bundle schema {schema!r} "
            f"(expected {BUNDLE_SCHEMA_VERSION})"
        )
    for key in _REQUIRED_KEYS:
        if key not in manifest:
            raise ReportingError(f"{manifest_path}: manifest is missing {key!r}")
    if manifest["kind"] not in BUNDLE_KINDS:
        raise ReportingError(
            f"{manifest_path}: unknown bundle kind {manifest['kind']!r}"
        )
    if not isinstance(manifest["seeds"], list) or not all(
        isinstance(seed, int) and not isinstance(seed, bool) for seed in manifest["seeds"]
    ):
        raise ReportingError(f"{manifest_path}: seeds must be a list of integers")
    if not isinstance(manifest["spec_hashes"], list) or not all(
        isinstance(item, str) for item in manifest["spec_hashes"]
    ):
        raise ReportingError(f"{manifest_path}: spec_hashes must be a list of strings")

    files = manifest["files"]
    if not isinstance(files, dict):
        raise ReportingError(f"{manifest_path}: files must be an object")
    for file_name, entry in files.items():
        path = directory / file_name
        if not path.is_file():
            raise ReportingError(f"{directory}: bundle file {file_name!r} is missing")
        payload = path.read_bytes()
        if len(payload) != entry.get("bytes"):
            raise ReportingError(
                f"{path}: size mismatch ({len(payload)} bytes on disk, "
                f"{entry.get('bytes')} in manifest)"
            )
        digest = _sha256(payload)
        if digest != entry.get("sha256"):
            raise ReportingError(
                f"{path}: digest mismatch (corrupted or hand-edited; "
                f"{digest[:12]}... on disk, {str(entry.get('sha256'))[:12]}... in manifest)"
            )

    rows_entry = manifest["rows"]
    if (
        not isinstance(rows_entry, dict)
        or rows_entry.get("file") not in files
        or rows_entry.get("format") not in ROW_FORMATS
    ):
        raise ReportingError(f"{manifest_path}: malformed rows entry {rows_entry!r}")
    rows = _read_rows(directory, rows_entry)
    if len(rows) != rows_entry.get("count"):
        raise ReportingError(
            f"{manifest_path}: row count mismatch ({len(rows)} rows on disk, "
            f"{rows_entry.get('count')} in manifest)"
        )
    summary_entry = manifest.get("summary")
    if summary_entry is not None:
        if not isinstance(summary_entry, dict) or summary_entry.get("file") not in files:
            raise ReportingError(
                f"{manifest_path}: malformed summary entry {summary_entry!r}"
            )
        summary = _read_rows(directory, summary_entry)
        if len(summary) != summary_entry.get("count"):
            raise ReportingError(f"{manifest_path}: summary count mismatch")
    return manifest


def _read_rows(directory: Path, entry: Mapping[str, object]) -> List[dict]:
    path = directory / str(entry["file"])
    return parse_rows(path.read_text(encoding="utf-8"), str(entry["format"]))


def load_bundle(directory) -> RunBundle:
    """Validate and load a bundle's manifest, rows and summary."""
    directory = Path(directory)
    manifest = validate_bundle(directory)
    rows = _read_rows(directory, manifest["rows"])  # type: ignore[arg-type]
    summary: List[dict] = []
    if manifest.get("summary") is not None:
        summary = _read_rows(directory, manifest["summary"])  # type: ignore[arg-type]
    return RunBundle(directory=directory, manifest=manifest, rows=rows, summary=summary)
