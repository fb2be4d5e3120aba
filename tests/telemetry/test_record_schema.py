"""Tests for the versioned record schema."""

import json
import math

import pytest

from repro.errors import TelemetryError
from repro.telemetry.schema import (
    SCHEMA_VERSION,
    validate_record,
    validate_stream,
)


def meta_record(**overrides):
    record = {"type": "meta", "schema": SCHEMA_VERSION, "source": "test", "run_id": "abc123"}
    record.update(overrides)
    return record


def snapshot_record(seq=0, **overrides):
    record = {"type": "snapshot", "seq": seq, "time": 1.0, "metrics": {"a": 1.0}}
    record.update(overrides)
    return record


class TestValidateRecord:
    def test_accepts_all_types(self):
        assert validate_record(meta_record(), first=True) == "meta"
        assert validate_record(snapshot_record()) == "snapshot"
        span = {
            "type": "span",
            "name": "s",
            "time": 0.0,
            "wall_ms": 0.1,
            "status": "ok",
            "attributes": {},
        }
        assert validate_record(span) == "span"
        assert validate_record({"type": "log", "level": "info", "event": "hi"}) == "log"

    def test_rejects_non_object(self):
        with pytest.raises(TelemetryError, match="not an object"):
            validate_record([1, 2])

    def test_rejects_unknown_type(self):
        with pytest.raises(TelemetryError, match="unknown record type"):
            validate_record({"type": "mystery"})

    def test_first_record_must_be_meta(self):
        with pytest.raises(TelemetryError, match="open with a meta"):
            validate_record(snapshot_record(), first=True)

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(TelemetryError, match="unsupported schema version"):
            validate_record(meta_record(schema=SCHEMA_VERSION + 1), first=True)

    def test_rejects_missing_required_field(self):
        record = snapshot_record()
        del record["metrics"]
        with pytest.raises(TelemetryError, match="missing 'metrics'"):
            validate_record(record)

    def test_rejects_non_finite_metric(self):
        with pytest.raises(TelemetryError, match="not numeric"):
            validate_record(snapshot_record(metrics={"bad": math.inf}))
        with pytest.raises(TelemetryError, match="not numeric"):
            validate_record(snapshot_record(metrics={"bad": True}))

    def test_null_metric_means_no_sample_yet(self):
        assert validate_record(snapshot_record(metrics={"p99": None})) == "snapshot"

    def test_histogram_metric_stats_checked(self):
        with pytest.raises(TelemetryError, match="stat 'p99'"):
            validate_record(snapshot_record(metrics={"h": {"p99": "oops"}}))

    def test_span_status_restricted(self):
        span = {
            "type": "span",
            "name": "s",
            "time": 0.0,
            "wall_ms": 0.1,
            "status": "meh",
            "attributes": {},
        }
        with pytest.raises(TelemetryError, match="ok|error"):
            validate_record(span)


class TestValidateStream:
    def lines(self, *records):
        return [json.dumps(record) for record in records]

    def test_counts_record_kinds(self):
        summary = validate_stream(
            self.lines(
                meta_record(),
                snapshot_record(seq=0),
                snapshot_record(seq=1, metrics={"b": 2.0}),
                {"type": "log", "level": "info", "event": "x"},
            )
        )
        assert summary.records == 4
        assert summary.snapshots == 2
        assert summary.logs == 1
        assert summary.metric_names == ["a", "b"]
        assert summary.meta["run_id"] == "abc123"

    def test_rejects_empty_stream(self):
        with pytest.raises(TelemetryError, match="empty"):
            validate_stream([])

    def test_rejects_non_increasing_seq(self):
        with pytest.raises(TelemetryError, match="not increasing"):
            validate_stream(
                self.lines(meta_record(), snapshot_record(seq=1), snapshot_record(seq=1))
            )

    def test_names_the_bad_line(self):
        with pytest.raises(TelemetryError, match="line 2"):
            validate_stream(self.lines(meta_record()) + ["{not json"])

    def test_counts_span_names(self):
        span = {
            "type": "span",
            "name": "controller.decide",
            "time": 0.0,
            "wall_ms": 0.1,
            "status": "ok",
            "attributes": {},
        }
        summary = validate_stream(self.lines(meta_record(), span, span))
        assert summary.span_names == {"controller.decide": 2}
        assert summary.row()["spans"] == 2
