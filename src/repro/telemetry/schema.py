"""The versioned telemetry record schema and its validators.

A telemetry stream is a JSONL file.  Line one is a ``meta`` record naming the
schema version, the producing source and the run's identity; every following
line is a ``snapshot`` (one probe's metric readings) or a ``span`` (one
closed trace span).  The schema also admits ``log`` records (one structured
diagnostic), which no producer in this package writes; the validator checks
them because streams may come from elsewhere.  The schema is versioned so
downstream tooling can refuse streams it does not understand instead of
misreading them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..errors import TelemetryError

__all__ = [
    "SCHEMA_VERSION",
    "RECORD_TYPES",
    "StreamSummary",
    "validate_record",
    "validate_stream",
    "validate_stream_file",
]

#: Version of the JSONL record schema.  Bump on any incompatible change.
SCHEMA_VERSION = 1

RECORD_TYPES = ("meta", "snapshot", "span", "log")

#: Required fields per record type (beyond ``type`` itself).
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "meta": ("schema", "source", "run_id"),
    "snapshot": ("seq", "time", "metrics"),
    "span": ("name", "time", "wall_ms", "status", "attributes"),
    "log": ("level", "event"),
}


def _fail(reason: str, record: object) -> None:
    rendered = json.dumps(record, sort_keys=True, default=str)
    if len(rendered) > 200:
        rendered = rendered[:200] + "..."
    raise TelemetryError(f"invalid telemetry record: {reason} ({rendered})")


def validate_record(record: object, first: bool = False) -> str:
    """Validate one decoded record; returns its type or raises TelemetryError.

    ``first=True`` additionally enforces the stream framing rule: the first
    record must be a ``meta`` record carrying a supported schema version.
    """
    if not isinstance(record, dict):
        _fail("record is not an object", record)
    kind = record.get("type")
    if kind not in RECORD_TYPES:
        _fail(f"unknown record type {kind!r}", record)
    if first and kind != "meta":
        _fail("stream must open with a meta record", record)
    for key in _REQUIRED[kind]:
        if key not in record:
            _fail(f"{kind} record is missing {key!r}", record)
    if kind == "meta":
        schema = record["schema"]
        if schema != SCHEMA_VERSION:
            _fail(f"unsupported schema version {schema!r} (expected {SCHEMA_VERSION})", record)
        if not isinstance(record["source"], str) or not record["source"]:
            _fail("meta source must be a non-empty string", record)
    elif kind == "snapshot":
        if not isinstance(record["metrics"], dict):
            _fail("snapshot metrics must be an object", record)
        if not isinstance(record["seq"], int) or record["seq"] < 0:
            _fail("snapshot seq must be a non-negative integer", record)
        _require_number(record, "time")
        for name, value in record["metrics"].items():
            if isinstance(value, dict):
                for stat, inner in value.items():
                    if not _is_number(inner):
                        _fail(f"metric {name!r} stat {stat!r} is not numeric", record)
            elif value is not None and not _is_number(value):
                _fail(f"metric {name!r} is not numeric", record)
    elif kind == "span":
        _require_number(record, "time")
        _require_number(record, "wall_ms")
        if not isinstance(record["attributes"], dict):
            _fail("span attributes must be an object", record)
        if record["status"] not in ("ok", "error"):
            _fail(f"span status must be ok|error, got {record['status']!r}", record)
    elif kind == "log":
        if not isinstance(record["event"], str):
            _fail("log event must be a string", record)
    return kind  # type: ignore[return-value]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _require_number(record: dict, key: str) -> None:
    if not _is_number(record[key]):
        _fail(f"{record.get('type')} field {key!r} must be a finite number", record)


@dataclass
class StreamSummary:
    """What a validated stream contained."""

    records: int = 0
    snapshots: int = 0
    spans: int = 0
    logs: int = 0
    meta: Dict[str, object] = field(default_factory=dict)
    span_names: Dict[str, int] = field(default_factory=dict)
    metric_names: List[str] = field(default_factory=list)

    def row(self) -> Dict[str, object]:
        return {
            "records": self.records,
            "snapshots": self.snapshots,
            "spans": self.spans,
            "logs": self.logs,
            "source": self.meta.get("source", ""),
            "run_id": self.meta.get("run_id", ""),
        }


def validate_stream(lines: Iterable[str]) -> StreamSummary:
    """Validate every record of a JSONL stream; returns a summary.

    Raises :class:`TelemetryError` on the first malformed line, naming the
    line number.  Snapshot ``seq`` values must be strictly increasing so a
    truncated or interleaved stream is caught, not silently accepted.
    """
    summary = StreamSummary()
    last_seq = -1
    metric_names: set = set()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"line {number}: not valid JSON ({exc})") from None
        try:
            kind = validate_record(record, first=summary.records == 0)
        except TelemetryError as exc:
            raise TelemetryError(f"line {number}: {exc}") from None
        summary.records += 1
        if kind == "meta":
            summary.meta = record
        elif kind == "snapshot":
            if record["seq"] <= last_seq:
                raise TelemetryError(
                    f"line {number}: snapshot seq {record['seq']} is not increasing "
                    f"(previous {last_seq})"
                )
            last_seq = record["seq"]
            summary.snapshots += 1
            metric_names.update(record["metrics"])
        elif kind == "span":
            summary.spans += 1
            name = record["name"]
            summary.span_names[name] = summary.span_names.get(name, 0) + 1
        else:
            summary.logs += 1
    if summary.records == 0:
        raise TelemetryError("telemetry stream is empty")
    summary.metric_names = sorted(metric_names)
    return summary


def validate_stream_file(path: str) -> StreamSummary:
    with open(path, "r", encoding="utf-8") as handle:
        return validate_stream(handle)
