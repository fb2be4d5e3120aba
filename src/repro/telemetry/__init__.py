"""Streaming telemetry for the simulated fleet (the observability layer).

PerfIso's operating story is *watching* interactive P99 against its SLO in
real time while secondaries harvest the slack.  This package makes every
simulation in the repo — a single machine, a controller showdown, a
50k-machine staged rollout — observable while it runs:

* :mod:`repro.telemetry.spans` — lightweight span tracing around controller
  ``decide()`` calls, rollout stages and runner fan-outs;
* :mod:`repro.telemetry.schema` — the versioned JSONL record schema and
  its validators;
* :mod:`repro.telemetry.stream` — the snapshot publisher: a
  :class:`TelemetrySession` wires a snapshot probe, a span tracer and a
  JSONL writer onto a running simulation through the engine's probe seam;
* :mod:`repro.telemetry.log` — the structured stderr logger the CLIs use;
* :mod:`repro.telemetry.profiling` — the one profiling entry point (both the
  offline buffer-core profiler and the ``--profile`` cProfile wrapper).

The seam costs nothing when unused: an engine with zero subscribers runs the
exact hot loop it always did (pinned by the determinism suites and the
``REPRO_PERF_GUARD`` benchmark gate), and telemetry draws from no random
stream, so enabling it never perturbs simulation results.
"""

from .log import StructuredLogger, get_logger
from .schema import (
    SCHEMA_VERSION,
    StreamSummary,
    validate_record,
    validate_stream,
    validate_stream_file,
)
from .spans import Span, SpanTracer
from .stream import SnapshotWriter, TelemetrySession, read_records

__all__ = [
    "Span",
    "SpanTracer",
    "SCHEMA_VERSION",
    "StreamSummary",
    "SnapshotWriter",
    "StructuredLogger",
    "TelemetrySession",
    "get_logger",
    "read_records",
    "validate_record",
    "validate_stream",
    "validate_stream_file",
]
