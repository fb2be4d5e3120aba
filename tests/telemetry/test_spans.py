"""Tests for span tracing."""

import pytest

from repro.telemetry import SpanTracer
from repro.telemetry.schema import validate_record


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_record_instant_span():
    clock = FakeClock()
    clock.now = 2.5
    received = []
    tracer = SpanTracer(clock, sink=received.append)
    span = tracer.record("controller.decide", decision="hold")
    assert span.time == 2.5
    assert span.sim_duration == 0.0
    assert span.status == "ok"
    assert span.attributes == {"decision": "hold"}
    assert received == [span]


def test_span_context_measures_sim_duration():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("rollout.stage", stage="5pct") as span:
        clock.now = 3.0
        span.attributes["decision"] = "advance"
    assert span.sim_duration == 3.0
    assert span.wall_ms >= 0.0
    assert span.status == "ok"
    assert span.attributes == {"stage": "5pct", "decision": "advance"}


def test_span_marks_error_and_propagates():
    received = []
    tracer = SpanTracer(FakeClock(), sink=received.append)
    with pytest.raises(ValueError):
        with tracer.span("fleet.shards"):
            raise ValueError("boom")
    (span,) = received
    assert span.status == "error"
    assert span.attributes["exception"] == "ValueError"


def test_spans_stream_to_sink_on_close():
    received = []
    tracer = SpanTracer(FakeClock(), sink=received.append)
    with tracer.span("a"):
        assert received == []  # emitted only once closed
    tracer.record("b")
    assert [span.name for span in received] == ["a", "b"]


def test_as_record_is_schema_valid():
    tracer = SpanTracer(FakeClock())
    span = tracer.record("controller.decide", wall_ms=0.21, decision="cores=6")
    assert validate_record(span.as_record()) == "span"
