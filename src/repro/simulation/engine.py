"""The discrete-event simulation engine.

The engine owns the virtual clock and the event heap.  Everything else in the
simulator — the multicore scheduler, disks, tenants, the PerfIso controller —
is expressed as callbacks scheduled on a single :class:`SimulationEngine`.

Design notes
------------
* The clock only moves when an event is executed; there is no fixed tick.
* The heap holds ``(time, priority, seq, event)`` tuples.  ``seq`` is unique,
  so same-timestamp ties resolve by priority, then insertion order, entirely
  inside the C tuple comparison; every experiment is exactly reproducible for
  a given seed.
* Cancellation is lazy: :meth:`cancel` clears the event's ``pending`` flag and
  the live count at once, and :meth:`run` drops the dead entry when it
  reaches the top of the heap.
* :meth:`run` is the hottest loop in the simulator and pops one entry at a
  time, so a callback that schedules or cancels an event at its own
  timestamp needs no special case.  Only about 0.3% of a fig8 run's events
  share a timestamp with another, so batching them would not pay.
* The engine is deliberately ignorant of the domain: it knows nothing about
  cores, queries or isolation.  That keeps it small and easy to test
  exhaustively (see ``tests/simulation``).
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from .events import Event, EventPriority

__all__ = ["ProbeSubscription", "SimulationEngine"]

_INF = float("inf")


class ProbeSubscription:
    """One telemetry observer: ``callback(now)`` every ``interval`` seconds.

    Handed out by :meth:`SimulationEngine.subscribe`; a probe stays
    subscribed for the engine's lifetime.  ``fired`` counts deliveries (a
    cheap liveness signal for tests).
    """

    __slots__ = ("callback", "interval", "event", "fired")

    def __init__(self, callback: Callable[[float], None], interval: float) -> None:
        self.callback = callback
        self.interval = interval
        self.event: Optional[Event] = None
        self.fired = 0


class SimulationEngine:
    """A minimal, deterministic discrete-event simulation kernel."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Events queued and not cancelled (the heap may also hold dead ones).
        self._live = 0
        self._running = False
        self._events_executed = 0
        # Telemetry probe seam.  ``None`` (the default) is the zero-cost
        # disabled state: run() performs a single ``is None`` check and the
        # hot loop below is untouched.  Probes are ordinary TELEMETRY-priority
        # events, so subscribing changes nothing about how domain events
        # sort relative to each other.
        self._probes: Optional[List[ProbeSubscription]] = None
        self._probe_pending = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed since construction."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events still queued."""
        return self._live

    # ------------------------------------------------------------ scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"event delay must be a number >= 0 s, got {delay}")
        return self.push(self._now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, which is not at or after "
                f"now={self._now:.9f}"
            )
        return self.push(time, callback, args, priority)

    def push(
        self, time: float, callback: Callable[..., Any], args: tuple, priority: int
    ) -> Event:
        """Queue ``callback(*args)`` at absolute ``time`` without checking it.

        The per-slice and per-chunk hot paths call this directly; ``time``
        must not be before :attr:`now`.  Everything else uses
        :meth:`schedule` or :meth:`schedule_at`.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event(callback, args)
        heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a scheduled event.

        A no-op for ``None`` and for an event that already ran or was
        cancelled, so the live count drops exactly once per event.
        """
        if event is not None and event.pending:
            event.pending = False
            self._live -= 1

    # ------------------------------------------------------- telemetry seam
    def subscribe(
        self, callback: Callable[[float], None], interval: float
    ) -> ProbeSubscription:
        """Register a telemetry probe: ``callback(now)`` every ``interval``.

        Probes are ordinary events at :data:`EventPriority.TELEMETRY` (the
        lowest priority, so a probe observes the settled state of its
        timestamp).  A probe only stays scheduled while live domain events
        remain — it can never keep an otherwise-drained engine alive — and
        :meth:`run` re-arms any probe that went dormant, so repeated
        ``run(until=...)`` calls keep probing.  Probes draw from no random
        stream and must not mutate simulation state; with zero subscribers
        the engine's hot loop is byte-identical to the unsubscribed build.
        """
        if not interval > 0:
            raise SimulationError(f"probe interval must be positive, got {interval}")
        subscription = ProbeSubscription(callback, float(interval))
        if self._probes is None:
            self._probes = []
        self._probes.append(subscription)
        self._schedule_probe(subscription)
        return subscription

    def _schedule_probe(self, subscription: ProbeSubscription) -> None:
        subscription.event = self.push(
            self._now + subscription.interval,
            self._fire_probe,
            (subscription,),
            EventPriority.TELEMETRY,
        )
        self._probe_pending += 1

    def _fire_probe(self, subscription: ProbeSubscription) -> None:
        self._probe_pending -= 1
        subscription.event = None
        subscription.fired += 1
        subscription.callback(self._now)
        # Reschedule only while live non-probe work remains; a drained queue
        # must stay drained so run() terminates exactly as it always has.
        if self._live - self._probe_pending > 0:
            self._schedule_probe(subscription)

    def _rearm_probes(self) -> None:
        for subscription in self._probes or ():
            if subscription.event is None:
                self._schedule_probe(subscription)

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the heap drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.  When
        ``until`` is given the clock is advanced to exactly ``until`` even if
        the last event fired earlier, so repeated ``run(until=...)`` calls
        compose naturally.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run() call)")
        # Telemetry seam: the sole disabled-path cost is this None check.  A
        # probe that went dormant when a previous run() drained the queue is
        # re-armed here so composed run(until=...) calls keep probing.
        if self._probes is not None:
            self._rearm_probes()
        self._running = True
        heap = self._heap
        limit = _INF if until is None else until
        # The loop allocates heavily (events, threads, closures).  Finished
        # threads and events are freed by reference counting as they go (a
        # process keeps only its live threads), so a cyclic-GC pass here would
        # mostly re-traverse the live heap — the queue, the live threads, the
        # metric buffers — and find almost nothing to free.  Suspend
        # collection and restore the caller's setting on the way out; the
        # cycles that remain (engine, kernel and tenants refer to each other)
        # are reclaimed once the experiment is dropped.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and heap[0][0] <= limit:
                time, _, _, event = heappop(heap)
                if event.pending:
                    event.pending = False
                    self._live -= 1
                    self._now = time
                    event.callback(*event.args)
                    self._events_executed += 1
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationEngine(now={self._now:.6f}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
