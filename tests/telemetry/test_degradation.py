"""Telemetry must observe the run, never kill it: OSError degradation.

Failing-before regressions: a full disk (or yanked volume) under the
telemetry stream used to propagate ``OSError`` out of ``write_snapshot`` /
``write_span`` and crash the simulation being observed.  The writer now
disables itself with one structured warning and every later write becomes a
silent no-op; the span tracer likewise drops a dead sink and keeps tracing.
Writing to an explicitly *closed* writer is still a programming error and
still raises.
"""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import SnapshotWriter
from repro.telemetry.spans import Span, SpanTracer


class FailingHandle:
    """A file object whose I/O dies after ``healthy_writes`` successes."""

    def __init__(self, healthy_writes=0):
        self.healthy_writes = healthy_writes
        self.writes = 0
        self.closed = False

    def write(self, text):
        self.writes += 1
        if self.writes > self.healthy_writes:
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        pass

    def close(self):
        self.closed = True


def make_writer(tmp_path, handle):
    writer = SnapshotWriter(str(tmp_path / "stream.jsonl"), source="test")
    writer._handle = handle
    return writer


class TestSnapshotWriterDegradation:
    def test_oserror_disables_instead_of_raising(self, tmp_path):
        writer = make_writer(tmp_path, FailingHandle())
        seq = writer.write_snapshot(0.5, {"a": 1.0})
        assert writer.disabled
        assert seq == 0  # seq continuity preserved even for the failed write
        assert writer.snapshots_written == 0

    def test_disabled_writer_is_a_silent_noop(self, tmp_path, capsys):
        writer = make_writer(tmp_path, FailingHandle())
        writer.write_snapshot(0.5, {"a": 1.0})
        first = capsys.readouterr().err
        assert "telemetry stream disabled" in first
        # The run keeps issuing writes; none raise, none warn again.
        writer.write_snapshot(1.0, {"a": 2.0})
        writer.write_span(Span(name="controller.decide", time=1.0))
        assert capsys.readouterr().err == ""

    def test_seq_keeps_advancing_while_disabled(self, tmp_path):
        writer = make_writer(tmp_path, FailingHandle())
        assert writer.write_snapshot(0.5, {}) == 0
        assert writer.write_snapshot(1.0, {}) == 1

    def test_handle_closed_on_disable(self, tmp_path):
        handle = FailingHandle()
        writer = make_writer(tmp_path, handle)
        writer.write_snapshot(0.5, {})
        assert handle.closed

    def test_close_swallows_oserror(self, tmp_path):
        class FailingClose(FailingHandle):
            def close(self):
                super().close()
                raise OSError(5, "Input/output error")

        writer = make_writer(tmp_path, FailingClose(healthy_writes=100))
        writer.close()  # must not raise
        assert writer.disabled

    def test_explicit_close_still_raises_on_write(self, tmp_path):
        """Degradation is for I/O failures only — using a writer after
        close() remains a programming error."""
        writer = SnapshotWriter(str(tmp_path / "s.jsonl"), source="test")
        writer.close()
        assert not writer.disabled
        with pytest.raises(TelemetryError, match="closed"):
            writer.write_snapshot(0.0, {})

    def test_simulation_survives_midrun_disk_failure(self, tmp_path):
        """The integration shape: the stream dies after the meta record and
        a couple of snapshots; the remaining probes are no-ops and the
        stream's healthy prefix stays parseable."""
        from repro.telemetry import read_records

        path = tmp_path / "stream.jsonl"
        writer = SnapshotWriter(str(path), source="test")
        writer.write_snapshot(0.1, {"x": 1.0})
        writer._handle = FailingHandle()
        for tick in range(5):
            writer.write_snapshot(0.2 + tick, {"x": float(tick)})
        assert writer.disabled
        records = read_records(str(path))
        assert [r["type"] for r in records] == ["meta", "snapshot"]


class TestSpanTracerDegradation:
    def test_dead_sink_dropped_with_one_warning(self, capsys):
        calls = []

        def sink(span):
            calls.append(span)
            raise OSError(32, "Broken pipe")

        tracer = SpanTracer(clock=lambda: 0.0, sink=sink)
        tracer.record("controller.decide")
        assert "span sink disabled" in capsys.readouterr().err
        span = tracer.record("controller.decide")
        assert [c.name for c in calls] == ["controller.decide"]  # dropped after one failure
        assert span.name == "controller.decide"  # but tracing goes on
        assert capsys.readouterr().err == ""  # and no second warning

    def test_span_context_manager_survives_sink_death(self):
        calls = []

        def sink(span):
            calls.append(span)
            raise OSError(28, "No space left on device")

        tracer = SpanTracer(clock=lambda: 0.0, sink=sink)
        with tracer.span("rollout.stage", stage="stage-1"):
            pass  # must not raise
        assert [(c.name, c.status) for c in calls] == [("rollout.stage", "ok")]
