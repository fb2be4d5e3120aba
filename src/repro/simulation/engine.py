"""The discrete-event simulation engine.

The engine owns the virtual clock and the event queue.  Everything else in the
simulator — the multicore scheduler, disks, tenants, the PerfIso controller —
is expressed as callbacks scheduled on a single :class:`SimulationEngine`.

Design notes
------------
* The clock only moves when an event is executed; there is no fixed tick.
* Same-timestamp ordering is deterministic (priority, then insertion order),
  which makes every experiment exactly reproducible for a given seed.
* The engine is deliberately ignorant of the domain: it knows nothing about
  cores, queries or isolation.  That keeps it small and easy to test
  exhaustively (see ``tests/simulation``).
* :meth:`run` is the hottest loop in the simulator: it works directly on the
  queue's heap of ``(time, priority, seq, event)`` tuples, executes
  same-timestamp events as one batch (checking ``until``/cancellation once
  per batch), and pushes the unexecuted tail back verbatim whenever a
  callback stops the engine or schedules a same-timestamp event that must
  sort earlier — so batching is observationally identical to a single-pop
  loop.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from .events import Event, EventPriority, EventQueue

__all__ = ["ProbeSubscription", "SimulationEngine"]


class ProbeSubscription:
    """One telemetry observer: ``callback(now)`` every ``interval`` seconds.

    Handed out by :meth:`SimulationEngine.subscribe`; pass it back to
    :meth:`SimulationEngine.unsubscribe` to stop probing.  ``fired`` counts
    deliveries (a cheap liveness signal for tests and the console).
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
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._stop_hooks: List[Callable[[], None]] = []
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
        return len(self._queue)

    # ------------------------------------------------------------ scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} s in the past")
        return self._queue.push(self._now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, which is before now={self._now:.9f}"
            )
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (no-op for ``None``)."""
        if event is None or event.cancelled:
            return
        event.cancel()
        # Only adjust the live count while the event is actually pending;
        # cancelling an event that already popped (or fired) must not skew it.
        if event.in_queue:
            self._queue.notify_cancel()

    def add_stop_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable invoked once when :meth:`run` finishes."""
        self._stop_hooks.append(hook)

    # ------------------------------------------------------- telemetry seam
    @property
    def subscriber_count(self) -> int:
        """Number of active telemetry probe subscriptions."""
        return len(self._probes) if self._probes is not None else 0

    def subscribe(
        self, callback: Callable[[float], None], interval: float
    ) -> ProbeSubscription:
        """Register a telemetry probe: ``callback(now)`` every ``interval``.

        Probes are ordinary events at :data:`EventPriority.TELEMETRY` (the
        lowest priority, so a probe observes the settled state of its
        timestamp).  A probe only stays scheduled while domain events remain
        pending — it can never keep an otherwise-drained engine alive — and
        :meth:`run` re-arms any probe that went dormant, so repeated
        ``run(until=...)`` calls keep probing.  Probes draw from no random
        stream and must not mutate simulation state; with zero subscribers
        the engine's hot loop is byte-identical to the unsubscribed build.
        """
        if interval <= 0:
            raise SimulationError(f"probe interval must be positive, got {interval}")
        subscription = ProbeSubscription(callback, float(interval))
        if self._probes is None:
            self._probes = []
        self._probes.append(subscription)
        self._schedule_probe(subscription)
        return subscription

    def unsubscribe(self, subscription: ProbeSubscription) -> None:
        """Remove a probe registered with :meth:`subscribe` (idempotent)."""
        if self._probes is None or subscription not in self._probes:
            return
        self._probes.remove(subscription)
        if subscription.event is not None:
            self.cancel(subscription.event)
            subscription.event = None
            self._probe_pending -= 1
        if not self._probes:
            self._probes = None

    def _schedule_probe(self, subscription: ProbeSubscription) -> None:
        subscription.event = self._queue.push(
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
        # Reschedule only while non-probe work remains; a drained queue must
        # stay drained so run() terminates exactly as it always has.
        if len(self._queue) - self._probe_pending > 0:
            self._schedule_probe(subscription)

    def _rearm_probes(self) -> None:
        for subscription in self._probes or ():
            if subscription.event is None:
                self._schedule_probe(subscription)

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed.

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
        self._stopped = False
        executed_this_run = 0
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
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
            while not self._stopped:
                if max_events is not None and executed_this_run >= max_events:
                    break
                while heap and heap[0][3].cancelled:
                    heappop(heap)[3].in_queue = False
                if not heap:
                    break
                now = heap[0][0]
                if until is not None and now > until:
                    break
                self._now = now
                first = heappop(heap)
                if not heap or heap[0][0] != now:
                    # Singleton fast path: no same-timestamp companions, so
                    # no batch bookkeeping (the overwhelmingly common case).
                    event = first[3]
                    event.in_queue = False
                    queue._live -= 1
                    event.callback(*event.args)
                    self._events_executed += 1
                    executed_this_run += 1
                    continue
                # Timer-coalescing fast path: pop the whole same-timestamp
                # batch, then execute it in (priority, seq) order.
                entries = [first]
                while heap and heap[0][0] == now:
                    entries.append(heappop(heap))
                index = 0
                count = len(entries)
                while index < count:
                    entry = entries[index]
                    event = entry[3]
                    if event.cancelled:
                        # Cancelled by an earlier batch member; its live-count
                        # adjustment already happened at cancel time.
                        event.in_queue = False
                        index += 1
                        continue
                    if self._stopped or (
                        max_events is not None and executed_this_run >= max_events
                    ):
                        for tail in range(index, count):
                            heappush(heap, entries[tail])
                        break
                    if heap:
                        top = heap[0]
                        if top[0] == now and top < entry:
                            # A callback scheduled a same-timestamp event that
                            # sorts before the rest of this batch; requeue the
                            # tail (original seqs keep its order) and let the
                            # outer loop re-merge.
                            for tail in range(index, count):
                                heappush(heap, entries[tail])
                            break
                    event.in_queue = False
                    queue._live -= 1
                    index += 1
                    event.callback(*event.args)
                    self._events_executed += 1
                    executed_this_run += 1
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        for hook in self._stop_hooks:
            hook()
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationEngine(now={self._now:.6f}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
