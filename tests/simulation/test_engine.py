"""Tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventPriority


class TestScheduling:
    def test_time_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_custom_start_time(self):
        assert SimulationEngine(start_time=5.0).now == 5.0

    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule(0.3, order.append, "c")
        engine.schedule(0.1, order.append, "a")
        engine.schedule(0.2, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(0.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.5]
        assert engine.now == 0.5

    def test_same_time_ordered_by_priority(self, engine):
        order = []
        engine.schedule(0.1, order.append, "low", priority=EventPriority.MEASUREMENT)
        engine.schedule(0.1, order.append, "high", priority=EventPriority.HARDWARE)
        engine.run()
        assert order == ["high", "low"]

    def test_same_time_same_priority_is_fifo(self, engine):
        order = []
        for label in "abc":
            engine.schedule(0.1, order.append, label)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_schedule_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_nan_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: None)
        assert engine.pending_events == 0

    def test_schedule_at_in_the_past_rejected(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_schedule_at_absolute_time(self, engine):
        seen = []
        engine.schedule_at(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, "early")
        engine.schedule(3.0, seen.append, "late")
        engine.run(until=2.0)
        assert seen == ["early"]
        assert engine.now == 2.0
        assert engine.pending_events == 1

    def test_run_until_can_be_resumed(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, 1)
        engine.schedule(3.0, seen.append, 3)
        engine.run(until=2.0)
        engine.run(until=4.0)
        assert seen == [1, 3]

    def test_reentrant_run_rejected(self, engine):
        def recurse():
            engine.run()

        engine.schedule(0.1, recurse)
        with pytest.raises(SimulationError):
            engine.run()

    def test_events_executed_counter(self, engine):
        for i in range(4):
            engine.schedule(0.1 * (i + 1), lambda: None)
        engine.run()
        assert engine.events_executed == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        seen = []
        event = engine.schedule(0.1, seen.append, "x")
        engine.cancel(event)
        engine.run()
        assert seen == []

    def test_cancel_none_is_noop(self, engine):
        engine.cancel(None)

    def test_cancel_twice_is_safe(self, engine):
        event = engine.schedule(0.1, lambda: None)
        engine.cancel(event)
        engine.cancel(event)
        engine.run()
        assert engine.pending_events == 0

    def test_events_scheduled_from_events(self, engine):
        seen = []

        def first():
            seen.append("first")
            engine.schedule(0.5, lambda: seen.append("nested"))

        engine.schedule(0.1, first)
        engine.run()
        assert seen == ["first", "nested"]
        assert engine.now == pytest.approx(0.6)
