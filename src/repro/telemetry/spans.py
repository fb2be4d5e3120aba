"""Lightweight span tracing for structured simulation events.

A span marks one named unit of work — a controller ``decide()`` call, a
rollout stage, a runner shard fan-out — with its simulation-time position,
its wall-clock cost and free-form attributes.  Spans stream to a sink the
moment they close (normally a :class:`~repro.telemetry.stream.SnapshotWriter`),
so a long fleet run never accumulates them in memory.

Simulation time and wall time are deliberately both recorded: ``time`` (and
``sim_duration``) are deterministic functions of the spec, while
``wall_ms`` measures what the span actually cost the host — the number the
profiling workflow cares about.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from .log import get_logger

__all__ = ["Span", "SpanTracer"]


@dataclass
class Span:
    """One closed span, ready for serialisation."""

    name: str
    #: Simulation time at which the span opened (seconds).
    time: float
    #: Simulation seconds covered (0.0 for an instantaneous span).
    sim_duration: float = 0.0
    #: Wall-clock milliseconds the spanned work took on the host.
    wall_ms: float = 0.0
    status: str = "ok"
    attributes: Dict[str, object] = field(default_factory=dict)

    def as_record(self) -> Dict[str, object]:
        return {
            "type": "span",
            "name": self.name,
            "time": self.time,
            "sim_duration": self.sim_duration,
            "wall_ms": round(self.wall_ms, 4),
            "status": self.status,
            "attributes": self.attributes,
        }


class SpanTracer:
    """Creates spans against a simulation clock and streams them to a sink.

    ``clock`` supplies the simulation time (``engine.now`` for engine-driven
    runs, a bucket cursor for the analytic fleet tier).  ``sink`` receives
    each closed :class:`Span`; when ``None`` spans are only returned.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sink: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self._clock = clock
        self._sink = sink

    def _emit(self, span: Span) -> None:
        if self._sink is not None:
            try:
                self._sink(span)
            except OSError as error:
                # Tracing observes the simulation; it must not kill it.  A
                # sink whose I/O died (writers already degrade themselves,
                # but a raw file sink raises here) is dropped with one
                # structured warning.
                self._sink = None
                get_logger("repro.telemetry.spans").warning(
                    "span sink disabled",
                    span=span.name,
                    error=f"{type(error).__name__}: {error}",
                )

    def record(
        self,
        name: str,
        wall_ms: float = 0.0,
        sim_duration: float = 0.0,
        status: str = "ok",
        **attributes: object,
    ) -> Span:
        """Record an already-finished (often instantaneous) span."""
        span = Span(
            name=name,
            time=float(self._clock()),
            sim_duration=sim_duration,
            wall_ms=wall_ms,
            status=status,
            attributes=attributes,
        )
        self._emit(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span around a block of work.

        The span's ``time`` is the simulation time at entry, ``sim_duration``
        the simulation time that elapsed inside the block, and ``wall_ms``
        the wall-clock cost.  An exception marks the span ``error`` (with the
        exception type attached) and propagates.
        """
        started_sim = float(self._clock())
        started_wall = _time.perf_counter()
        span = Span(name=name, time=started_sim, attributes=dict(attributes))
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attributes.setdefault("exception", type(exc).__name__)
            raise
        finally:
            span.wall_ms = (_time.perf_counter() - started_wall) * 1e3
            span.sim_duration = max(0.0, float(self._clock()) - started_sim)
            self._emit(span)
