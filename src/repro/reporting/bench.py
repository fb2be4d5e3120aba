"""Merge-update tooling for the ``BENCH_*.json`` records.

The three benchmark records at the repository root are the canonical perf
history every speed claim cites.  They used to be rewritten wholesale by the
nightly benchmarks and hand-edited in between; this module makes every write
a *merge*: existing keys keep their position, updated keys change in place,
new keys append, keys the writing benchmark owns but no longer writes are
dropped, and the merged record is schema-validated
(:data:`repro.telemetry.schema.BENCH_SCHEMAS`) before a byte is written — so
a partial benchmark run can no longer silently drop fields, and hand edits
are replaced by ``python -m repro.reporting --merge-bench``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Mapping

from ..errors import ReportingError

__all__ = ["merge_bench_record", "bench_updates_from_source"]


def merge_bench_record(
    path,
    updates: Mapping[str, object],
    validate: bool = True,
    owned: Iterable[str] = (),
) -> Dict:
    """Merge ``updates`` into the BENCH record at ``path`` and write it back.

    Returns the merged record.  ``owned`` names every key the caller's
    benchmark writes, including ones it writes only sometimes: an owned key
    missing from ``updates`` is dropped (so a conditional note cannot outlive
    its condition), while keys owned by another benchmark sharing the record
    survive untouched.  When ``path``'s basename has a declared
    schema and ``validate`` is true, the *merged* record must satisfy it —
    an update that would leave a required key missing or non-numeric is
    rejected before the file is touched.  The on-disk rendering (indent 2,
    insertion order, trailing newline) matches what the benchmarks have
    always written, so a merge that changes nothing is byte-identical.
    """
    path = Path(path)
    record: Dict = {}
    if path.is_file():
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ReportingError(f"{path}: existing record is not valid JSON ({exc})") from None
        if not isinstance(record, dict):
            raise ReportingError(f"{path}: existing record must be a JSON object")
    for key in owned:
        if key not in updates:
            record.pop(key, None)
    record.update(updates)
    if validate:
        from ..telemetry.schema import BENCH_SCHEMAS, validate_bench_record

        if path.name in BENCH_SCHEMAS:
            validate_bench_record(path.name, record)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def bench_updates_from_source(source) -> Dict[str, object]:
    """Extract a flat BENCH-update dictionary from ``source``.

    ``source`` is either a run-artifact bundle directory (its ``bench.json``
    payload is used) or a plain JSON file holding one flat object.
    """
    source = Path(source)
    if source.is_dir():
        from .bundle import load_bundle

        bundle = load_bundle(source)
        if not bundle.bench:
            raise ReportingError(f"{source}: bundle carries no bench record")
        return dict(bundle.bench)
    if source.is_file():
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ReportingError(f"{source}: not valid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ReportingError(f"{source}: bench updates must be a JSON object")
        return payload
    raise ReportingError(f"{os.fspath(source)!r}: no such bundle directory or JSON file")
