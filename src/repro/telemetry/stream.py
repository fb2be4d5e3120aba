"""The snapshot stream: periodic JSONL publishing for running simulations.

A :class:`TelemetrySession` bundles a :class:`SnapshotWriter` and per-clock
:class:`~repro.telemetry.spans.SpanTracer`\\ s behind one object the CLIs
construct from ``--telemetry[=PATH]``.  The session instruments a
single-machine experiment through the engine's probe seam
(:meth:`~repro.simulation.engine.SimulationEngine.subscribe`); the fleet
tier publishes its per-bucket snapshots directly.

Telemetry is strictly read-only with respect to the simulation: probes draw
from no random stream, never mutate domain state, and the instrumented
experiment produces byte-identical results to an uninstrumented one (pinned
by tests and a hypothesis property).
"""

from __future__ import annotations

import json
import re
import time as _time
import uuid
from typing import Any, Dict, List, Optional

from ..errors import TelemetryError
from .log import get_logger
from .schema import SCHEMA_VERSION
from .spans import Span, SpanTracer

__all__ = ["SnapshotWriter", "TelemetrySession", "read_records"]

#: Probe cadence: this many snapshots across one run's total time.
PROBES_PER_RUN = 128

#: Cached compact encoder for span records, the only high-frequency record
#: type (one per controller poll).  ``json.dumps(..., default=str)`` builds
#: a fresh encoder per call and the sparse record types don't care, but at
#: span rates that construction dominates; dict insertion order is already
#: deterministic, so spans skip ``sort_keys`` too.
_SPAN_ENCODE = json.JSONEncoder(separators=(",", ":"), default=str).encode

#: Strings that serialise as themselves inside double quotes — no escapes,
#: no control characters.  Everything the hot span path emits (span names,
#: policy names, decision descriptions) matches; anything else falls back
#: to the real encoder.
_PLAIN_STRING = re.compile(r'[^"\\\x00-\x1f]*\Z').match


#: Memo of already-rendered plain strings.  Span names, statuses, policy
#: names, attribute keys and decision descriptions repeat across thousands
#: of spans per run; a dict hit replaces the regex check and quote
#: formatting.  Bounded so a pathological stream of unique strings cannot
#: grow it without limit.
_STR_RENDER: Dict[str, str] = {}


def _render_str(value: str) -> Optional[str]:
    rendered = _STR_RENDER.get(value)
    if rendered is None:
        if not _PLAIN_STRING(value):
            return None
        if len(_STR_RENDER) >= 4096:
            _STR_RENDER.clear()
        rendered = f'"{value}"'
        _STR_RENDER[value] = rendered
    return rendered


def _span_line(span: "Span") -> str:
    """One span's JSONL line, assembled without the generic JSON encoder.

    Spans fire once per controller poll — at millisecond poll cadence the
    stdlib encoder dominates the whole telemetry budget — so the known-shape
    record is formatted directly.  Any name/status/attribute the fast path
    cannot prove safe falls back to the encoder for the whole record.
    """
    # Inlined scalar dispatch (no helper call per value): at one span per
    # 1 ms poll, even function-call overhead shows up in the simcore bench.
    name = span.name
    status = span.status
    time_v = span.time
    sim_v = span.sim_duration
    parts: Optional[List[str]] = []
    if (
        type(name) is str
        and type(status) is str
        and type(time_v) is float
        and type(sim_v) is float
        and time_v - time_v == 0.0
        and sim_v - sim_v == 0.0
    ):
        rendered_name = _render_str(name)
        rendered_status = _render_str(status)
        if rendered_name is None or rendered_status is None:
            parts = None
        else:
            for key, value in span.attributes.items():
                kind = type(value)
                if kind is str:
                    rendered = _render_str(value)
                elif kind is float:
                    rendered = repr(value) if value - value == 0.0 else None
                elif kind is int:
                    rendered = repr(value)
                elif kind is bool:
                    rendered = "true" if value else "false"
                elif value is None:
                    rendered = "null"
                else:
                    rendered = None
                rendered_key = _render_str(key) if type(key) is str else None
                if rendered is None or rendered_key is None:
                    parts = None
                    break
                parts.append(f"{rendered_key}:{rendered}")
    else:
        parts = None
    wall_ms = round(span.wall_ms, 4)
    if parts is None or type(wall_ms) is not float or wall_ms - wall_ms != 0.0:
        return _SPAN_ENCODE(span.as_record())
    return (
        f'{{"type":"span","name":{rendered_name},"time":{time_v!r},'
        f'"sim_duration":{sim_v!r},"wall_ms":{wall_ms!r},'
        f'"status":{rendered_status},"attributes":{{{",".join(parts)}}}}}'
    )


class SnapshotWriter:
    """Writes one versioned JSONL telemetry stream.

    The meta record is emitted immediately on construction so even a run that
    crashes before its first probe leaves a valid (if empty) stream behind.
    Meta and snapshot records flush as written — a reader can tail the
    file while the run is still producing — while the much more frequent
    span records buffer until the next flush (see :meth:`write_span`).

    Telemetry is an observer, never a participant: an :class:`OSError` from
    the underlying file (disk full, pipe closed, volume yanked) **disables**
    the stream — one structured warning, handle closed, every later write a
    silent no-op — instead of killing the simulation it was watching.
    Writing to an explicitly :meth:`close`\\ d writer is still a programming
    error and still raises.
    """

    def __init__(
        self,
        path: str,
        source: str,
        run_id: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = str(path)
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self._handle = open(self.path, "w", encoding="utf-8")
        self._seq = 0
        self.snapshots_written = 0
        #: True once an OSError disabled the stream (writes became no-ops).
        self.disabled = False
        record: Dict[str, Any] = {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "source": source,
            "run_id": self.run_id,
            "created_unix": round(_time.time(), 3),
        }
        if meta:
            record.update(meta)
        self._write(record)

    # ------------------------------------------------------------------ sink
    def _disable(self, error: OSError) -> None:
        """Take the stream out of the run after an I/O failure.

        Exactly one structured warning is emitted; the handle is closed
        best-effort and every subsequent write becomes a no-op.  The
        simulation being observed keeps running — telemetry loss must never
        become simulation loss.
        """
        self.disabled = True
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
        get_logger("repro.telemetry.stream").warning(
            "telemetry stream disabled",
            path=self.path,
            run_id=self.run_id,
            error=f"{type(error).__name__}: {error}",
        )

    def _write(self, record: Dict[str, Any], flush: bool = True) -> None:
        if self.disabled:
            return
        if self._handle is None:
            raise TelemetryError(f"telemetry stream {self.path} is closed")
        try:
            self._handle.write(json.dumps(record, sort_keys=True, default=str))
            self._handle.write("\n")
            if flush:
                self._handle.flush()
        except OSError as error:
            self._disable(error)

    def write_snapshot(
        self, time: float, metrics: Dict[str, Any], label: Optional[str] = None
    ) -> int:
        """Append one snapshot record; returns its sequence number."""
        seq = self._seq
        self._seq = seq + 1
        record: Dict[str, Any] = {
            "type": "snapshot",
            "seq": seq,
            "time": float(time),
            "metrics": metrics,
        }
        if label is not None:
            record["label"] = label
        # Snapshots fire at probe cadence from inside the engine's hot loop;
        # like spans they use the cached compact encoder, but keep the
        # per-record flush so a reader can tail the stream mid-run.
        if self.disabled:
            return seq
        if self._handle is None:
            raise TelemetryError(f"telemetry stream {self.path} is closed")
        try:
            self._handle.write(_SPAN_ENCODE(record))
            self._handle.write("\n")
            self._handle.flush()
        except OSError as error:
            self._disable(error)
            return seq
        self.snapshots_written += 1
        return seq

    def write_span(self, span: Span) -> None:
        # Spans can be very frequent (one per controller poll); they buffer
        # until the next snapshot flush instead of paying a flush syscall
        # each, and use the known-shape fast serialiser.
        if self.disabled:
            return
        if self._handle is None:
            raise TelemetryError(f"telemetry stream {self.path} is closed")
        try:
            self._handle.write(_span_line(span))
            self._handle.write("\n")
        except OSError as error:
            self._disable(error)

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError as error:
                self._disable(error)
                return
            self._handle = None

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_records(path: str) -> List[Dict[str, Any]]:
    """Load every record of a JSONL telemetry stream (no validation)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class TelemetrySession:
    """One observability session shared by everything a CLI invocation runs.

    The session owns the JSONL writer; tracers are bound per simulation
    clock so spans always carry the right notion of "now".  Closing the
    session closes the stream.
    """

    def __init__(self, writer: SnapshotWriter) -> None:
        self.writer = writer

    @classmethod
    def to_path(
        cls, path: str, source: str, meta: Optional[Dict[str, Any]] = None
    ) -> "TelemetrySession":
        return cls(SnapshotWriter(path, source=source, meta=meta))

    # --------------------------------------------------------------- tracing
    def tracer(self, clock) -> SpanTracer:
        """A span tracer against ``clock`` whose spans stream to the writer."""
        return SpanTracer(clock, sink=self.writer.write_span)

    # ------------------------------------------------------- instrumentation
    def attach_single_machine(self, engine, node, client, spec, label: Optional[str] = None):
        """Wire a snapshot probe and controller spans onto one assembled run.

        Called by :meth:`SingleMachineExperiment.run
        <repro.experiments.single_machine.SingleMachineExperiment.run>` after
        the machine (``node``, a
        :class:`~repro.experiments.single_machine.MachineAssembly`) is built
        but before the engine runs.  Attaches a decide-span tracer to the
        controller and subscribes a probe that writes one snapshot
        ``PROBES_PER_RUN`` times per run.  Returns the probe subscription.
        """
        kernel = node.kernel
        collector = node.collector
        primary = node.primary
        controller = node.controller
        arrival_model = node.arrival_model
        latency_window = node.latency_window
        total_cores = kernel.logical_cores
        slo_ms = spec.perfiso.slo_p99 * 1e3 if spec.perfiso is not None else None
        if controller is not None:
            controller.attach_tracer(self.tracer(lambda: engine.now))

        writer = self.writer
        state = {
            "last_time": engine.now,
            "last_completed": primary.completed,
            "sample_cursor": collector.sample_count,
            # Holds its last reading when a probe lands with no time elapsed.
            "served_qps": 0.0,
        }

        def probe(now: float) -> None:
            elapsed = now - state["last_time"]
            completed = primary.completed
            if elapsed > 0:
                state["served_qps"] = (completed - state["last_completed"]) / elapsed
            state["last_time"] = now
            state["last_completed"] = completed
            offered = float(arrival_model.rate_at(now))
            if latency_window is not None:
                # A latency-feedback policy already maintains a sliding
                # window; report the same number the controller sees.
                p99 = latency_window.p99(now)
            else:
                # No policy window to piggyback on: the P99 of the samples
                # the collector recorded since the last probe, read straight
                # off its buffer.  This keeps the per-query hot path free of
                # any telemetry work (warmup-period probes report null - the
                # collector only buffers post-warmup samples).
                cursor = state["sample_cursor"]
                state["sample_cursor"] = collector.sample_count
                p99 = collector.percentile_since(cursor, 99.0)
            # None (and NaN, which JSON lacks) mark "no samples in window yet".
            p99_ms = float(p99 * 1e3) if p99 is not None else None
            if p99_ms is not None and p99_ms != p99_ms:
                p99_ms = None
            idle = kernel.idle_core_count()
            # Keys in sorted name order, then the SLO ratio.
            metrics: Dict[str, Any] = {}
            if controller is not None:
                cores = controller.secondary_core_count
                metrics["controller.polls"] = float(controller.polls)
                metrics["controller.secondary_cores"] = float(
                    cores if cores is not None else total_cores
                )
                metrics["controller.updates_applied"] = float(controller.updates_applied)
            metrics["latency.completed"] = float(completed)
            metrics["latency.dropped"] = float(primary.dropped)
            if slo_ms is not None:
                metrics["latency.slo_ms"] = slo_ms
            metrics["latency.windowed_p99_ms"] = p99_ms
            metrics["scheduler.idle_cores"] = float(idle)
            metrics["scheduler.occupancy"] = 1.0 - idle / total_cores
            metrics["workload.offered_qps"] = offered
            metrics["workload.served_qps"] = float(state["served_qps"])
            metrics["workload.submitted"] = float(client.submitted)
            if slo_ms is not None and p99_ms is not None:
                metrics["latency.p99_over_slo"] = p99_ms / slo_ms
            writer.write_snapshot(now, metrics, label=label)

        return engine.subscribe(probe, spec.workload.total_time / PROBES_PER_RUN)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self.writer.close()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
