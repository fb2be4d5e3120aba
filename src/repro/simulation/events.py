"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is the handle of one scheduled callback.  Its time and
ordering key live only in the engine's heap entry ``(time, priority, seq,
event)``: ties at one timestamp resolve by priority (lower runs earlier), then
by insertion order, which keeps the simulation fully deterministic.  The
handle itself carries the callback, its arguments and one ``pending`` flag.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Event", "EventPriority"]


class EventPriority:
    """Well-known priorities for same-timestamp ordering.

    Lower values run first.  The defaults are chosen so that hardware
    completions are observed before the OS scheduler reacts, and the PerfIso
    controller observes a settled system state.
    """

    HARDWARE = 0
    KERNEL = 10
    DEFAULT = 20
    TENANT = 30
    CONTROLLER = 40
    MEASUREMENT = 50
    #: Telemetry probes run last at any shared timestamp: observers see the
    #: settled state every other same-instant event produced.
    TELEMETRY = 60


class Event:
    """A single scheduled callback.

    Events should not be constructed directly; use
    :meth:`repro.simulation.engine.SimulationEngine.schedule`.  ``pending`` is
    true while the event is queued and not cancelled: the engine clears it
    when the event runs or is cancelled, so each event leaves the engine's
    live count exactly once.
    """

    __slots__ = ("callback", "args", "pending")

    def __init__(self, callback: Callable[..., Any], args: tuple) -> None:
        self.callback = callback
        self.args = args
        self.pending = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else "done"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event({name}, {state})"
