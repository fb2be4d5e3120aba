"""Tests for the engine's telemetry probe seam.

The seam's contract: probes observe, never perturb.  Subscribing a probe must
leave the domain side of the simulation — callback order, timing, and every
random draw — exactly as it was without the probe, and a probe must never
keep an otherwise-drained engine alive.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventPriority


def test_interval_must_be_positive():
    engine = SimulationEngine()
    with pytest.raises(SimulationError, match="positive"):
        engine.subscribe(lambda now: None, 0.0)
    with pytest.raises(SimulationError, match="positive"):
        engine.subscribe(lambda now: None, -1.0)
    with pytest.raises(SimulationError, match="positive"):
        engine.subscribe(lambda now: None, float("nan"))


def test_probe_fires_at_interval_while_work_remains():
    engine = SimulationEngine()
    seen = []
    for delay in (0.05, 0.55, 1.05):
        engine.schedule(delay, lambda: None)
    engine.subscribe(seen.append, 0.25)
    engine.run()
    # Fires at 0.25, 0.50, 0.75, 1.00 while domain events remain, plus the
    # already-queued 1.25 probe after the last domain event at 1.05.
    assert seen == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.25])


def test_probe_never_keeps_engine_alive():
    engine = SimulationEngine()
    engine.schedule(0.1, lambda: None)
    subscription = engine.subscribe(lambda now: None, 0.01)
    final = engine.run()
    assert final <= 0.12
    assert engine.pending_events == 0
    assert subscription.fired > 0


def test_probe_stops_when_only_cancelled_events_remain():
    engine = SimulationEngine()
    engine.schedule(0.1, lambda: None)
    engine.cancel(engine.schedule(10.0, lambda: None))
    subscription = engine.subscribe(lambda now: None, 0.01)
    engine.run(until=1.0)
    # The cancelled entry still sits in the heap, but it is not live work: the
    # probe must go dormant after 0.1 s, not keep ticking until ``until``.
    assert subscription.fired <= 11
    assert subscription.event is None
    assert engine.pending_events == 0


def test_dormant_probe_rearms_across_composed_runs():
    engine = SimulationEngine()
    seen = []
    engine.schedule(0.3, lambda: None)
    subscription = engine.subscribe(seen.append, 0.2)
    engine.run(until=1.0)
    fired_first_run = subscription.fired
    assert fired_first_run >= 2  # 0.2 while work remained, 0.4 already queued
    # The queue drained, so the probe went dormant instead of ticking to 1.0.
    assert subscription.event is None
    engine.schedule(0.5, lambda: None)  # now at t=1.0
    engine.run(until=2.0)
    assert subscription.fired > fired_first_run
    assert any(now > 1.0 for now in seen)


def test_probe_observes_settled_state_of_its_timestamp():
    engine = SimulationEngine()
    state = {"value": 0}
    observed = []
    # Domain event and probe collide at t=0.5; TELEMETRY sorts last, so the
    # probe must see the domain mutation.
    engine.schedule(0.5, lambda: state.__setitem__("value", 7))
    engine.schedule(0.5, lambda: None, priority=EventPriority.CONTROLLER)
    engine.subscribe(lambda now: observed.append((now, state["value"])), 0.5)
    engine.run(until=0.5)
    assert observed == [(0.5, 7)]


def test_telemetry_priority_is_lowest():
    assert EventPriority.TELEMETRY > max(
        EventPriority.HARDWARE,
        EventPriority.KERNEL,
        EventPriority.DEFAULT,
        EventPriority.TENANT,
        EventPriority.CONTROLLER,
        EventPriority.MEASUREMENT,
    )


def _run_domain_schedule(schedule, seed, probe_interval=None):
    """Run a randomized cascading schedule; returns the domain-side trace.

    Each callback records ``(now, tag, draw)`` and may schedule one follow-up
    from further rng draws, so any perturbation of ordering or randomness
    compounds and becomes visible in the trace.
    """
    engine = SimulationEngine()
    rng = random.Random(seed)
    trace = []

    def fire(tag):
        draw = rng.random()
        trace.append((engine.now, tag, draw))
        if draw < 0.4 and len(trace) < 200:
            engine.schedule(rng.random() * 0.5, fire, tag + 1000)

    for delay, tag in schedule:
        engine.schedule(delay, fire, tag)
    probes = 0
    if probe_interval is not None:
        subscription = engine.subscribe(lambda now: None, probe_interval)
        engine.run()
        probes = subscription.fired
    else:
        engine.run()
    return trace, probes


@settings(max_examples=50, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=5.0), st.integers(0, 99)),
        min_size=1,
        max_size=20,
    ),
    seed=st.integers(0, 2**16),
    interval=st.floats(min_value=0.01, max_value=2.0),
)
def test_probes_never_perturb_domain_execution(schedule, seed, interval):
    baseline, _ = _run_domain_schedule(schedule, seed)
    probed, probes = _run_domain_schedule(schedule, seed, probe_interval=interval)
    # Identical (time, tag, rng-draw) sequences: the probe changed nothing
    # about what the domain executed, when, or which random numbers it saw.
    assert probed == baseline
    assert probes >= 1
