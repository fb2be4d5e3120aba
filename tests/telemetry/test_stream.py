"""Tests for the SnapshotWriter and TelemetrySession plumbing."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import SnapshotWriter, TelemetrySession, validate_stream_file
from repro.telemetry.spans import Span
from repro.telemetry.stream import _SPAN_ENCODE, _span_line, read_records


def test_meta_record_written_on_construction(tmp_path):
    path = tmp_path / "stream.jsonl"
    writer = SnapshotWriter(str(path), source="test", meta={"scenario": "s1"})
    writer.close()
    (meta,) = read_records(str(path))
    assert meta["type"] == "meta"
    assert meta["source"] == "test"
    assert meta["scenario"] == "s1"
    assert meta["run_id"] == writer.run_id
    # Even a run that crashed before its first probe left a valid stream.
    validate_stream_file(str(path))


def test_snapshot_seq_autoincrements(tmp_path):
    path = tmp_path / "stream.jsonl"
    with SnapshotWriter(str(path), source="test") as writer:
        assert writer.write_snapshot(0.5, {"a": 1.0}) == 0
        assert writer.write_snapshot(1.0, {"a": 2.0}, label="stage-1") == 1
        assert writer.snapshots_written == 2
    summary = validate_stream_file(str(path))
    assert summary.snapshots == 2
    records = read_records(str(path))
    assert records[2]["label"] == "stage-1"


def test_write_after_close_raises(tmp_path):
    writer = SnapshotWriter(str(tmp_path / "s.jsonl"), source="test")
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(TelemetryError, match="closed"):
        writer.write_snapshot(0.0, {})
    with pytest.raises(TelemetryError, match="closed"):
        writer.write_span(Span(name="controller.decide", time=0.0))


@pytest.mark.parametrize(
    "span",
    [
        Span(
            name="controller.decide",
            time=1.5,
            wall_ms=0.0123,
            attributes={
                "policy": "blind",
                "idle_cores": 3.0,
                "cores_before": 8,
                "decision": "cores=9",
            },
        ),
        Span(name="rollout.stage", time=0.0, attributes={"stage": "5pct", "held": True}),
        Span(name="fleet.shards", time=2.0, status="error", attributes={"x": None}),
        # Not fast-path eligible: escapes, nested values, non-finite floats,
        # non-scalar attribute values — must fall back to the real encoder.
        Span(name='weird "name"\n', time=1.0, attributes={"a": 1}),
        Span(name="s", time=1.0, attributes={"nested": {"k": 1}}),
        Span(name="s", time=float("inf"), attributes={}),
        Span(name="s", time=1.0, attributes={"v": float("nan")}),
        Span(name="s", time=1.0, attributes={"obj": object()}),
    ],
)
def test_span_fast_serialiser_matches_json_encoder(span):
    # The hot-path serialiser must be byte-identical to the compact stdlib
    # encoding for every span it accepts, and fall back for the rest.
    assert _span_line(span) == _SPAN_ENCODE(span.as_record())


def test_session_to_path_and_tracer(tmp_path):
    path = tmp_path / "s.jsonl"
    with TelemetrySession.to_path(str(path), source="matrix") as session:
        tracer = session.tracer(lambda: 4.0)
        tracer.record("fleet.shards", shards=3)
        session.writer.write_snapshot(4.0, {"x": 1.0})
    summary = validate_stream_file(str(path))
    assert summary.spans == 1
    assert summary.snapshots == 1
    assert summary.span_names == {"fleet.shards": 1}
