"""Tests for the engine's event queue and its event handles."""

from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventPriority

_DEFAULT = EventPriority.DEFAULT


class TestEventQueue:
    """The engine's event queue, filled through the unchecked ``push`` that
    the scheduler and the disks use."""

    def test_len_counts_live_events(self):
        engine = SimulationEngine()
        first = engine.push(1.0, lambda: None, (), _DEFAULT)
        second = engine.push(2.0, lambda: None, (), _DEFAULT)
        assert engine.pending_events == 2
        engine.cancel(first)
        engine.cancel(first)
        assert engine.pending_events == 1
        engine.run()
        assert engine.pending_events == 0
        # Cancelling an event that already ran leaves the count alone.
        engine.cancel(second)
        assert engine.pending_events == 0

    def test_pop_returns_events_in_order(self):
        engine = SimulationEngine()
        seen = []
        engine.push(2.0, seen.append, ("b",), _DEFAULT)
        engine.push(1.0, seen.append, ("a",), _DEFAULT)
        engine.run()
        assert seen == ["a", "b"]

    def test_cancelled_events_are_skipped_by_pop(self):
        engine = SimulationEngine()
        seen = []
        engine.push(1.0, seen.append, ("a",), _DEFAULT)
        engine.cancel(engine.push(2.0, seen.append, ("b",), _DEFAULT))
        engine.run()
        # The dead entry is dropped without running or moving the clock.
        assert seen == ["a"]
        assert engine.now == 1.0

    def test_priority_breaks_ties(self):
        engine = SimulationEngine()
        seen = []
        engine.push(1.0, seen.append, ("later",), EventPriority.TENANT)
        engine.push(1.0, seen.append, ("earlier",), EventPriority.HARDWARE)
        engine.run()
        assert seen == ["earlier", "later"]

    def test_insertion_order_breaks_remaining_ties(self):
        engine = SimulationEngine()
        seen = []
        engine.push(1.0, seen.append, ("first",), _DEFAULT)
        engine.push(1.0, seen.append, ("second",), _DEFAULT)
        engine.run()
        assert seen == ["first", "second"]


class TestEvent:
    def test_cancel_marks_event(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        assert event.pending
        engine.cancel(event)
        assert not event.pending
