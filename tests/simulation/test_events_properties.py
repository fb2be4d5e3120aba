"""Property tests for the engine's event-ordering guarantees.

The simulator's determinism rests on one invariant: events run in
``(time, priority, insertion order)`` order, under any interleaving of
schedule, cancel and run, including schedules and cancels made by the
callbacks themselves.  These tests drive :class:`SimulationEngine` with
hypothesis-generated step sequences against a sorted reference model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventPriority

#: Delays are exact binary fractions, so ``now + delay`` is exact and
#: timestamp collisions are common — ties are exactly where the ordering
#: contract can break.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0])
_PRIORITIES = st.sampled_from(
    [EventPriority.HARDWARE, EventPriority.KERNEL, EventPriority.DEFAULT,
     EventPriority.TENANT, EventPriority.CONTROLLER]
)
#: What a callback does when it runs: nothing, cancel one of the events
#: scheduled so far (live, already run or already cancelled), or schedule a
#: follow-up at its own timestamp or later.
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1_000)),
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.0, 0.5]), _PRIORITIES),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, _PRIORITIES, _ACTIONS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1_000)),
        st.tuples(st.just("run"), st.one_of(st.none(), _DELAYS)),
    ),
    max_size=60,
)


class _Side:
    """Shared step logic; subclasses decide how events are queued and run."""

    def __init__(self):
        self.actions = []  # tag -> the action its callback performs
        self.trace = []  # (now, priority, tag) per executed callback

    def act(self, action):
        if action is None:
            return
        if action[0] == "cancel":
            self.cancel(action[1])
        else:
            self.schedule(action[1], action[2], None)


class _Engine(_Side):
    def __init__(self):
        super().__init__()
        self.engine = SimulationEngine()
        self.handles = []

    def schedule(self, delay, priority, action):
        tag = len(self.actions)
        self.actions.append(action)
        event = self.engine.schedule(delay, self._fire, tag, priority, priority=priority)
        self.handles.append(event)

    def cancel(self, index):
        if self.handles:
            self.engine.cancel(self.handles[index % len(self.handles)])

    def run(self, delay):
        self.engine.run(None if delay is None else self.engine.now + delay)

    def _fire(self, tag, priority):
        self.trace.append((self.engine.now, priority, tag))
        self.act(self.actions[tag])


class _Model(_Side):
    """Reference model: a plain dict of live ``(time, priority, tag)`` keys."""

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.live = {}  # tag -> (time, priority, tag)

    def schedule(self, delay, priority, action):
        tag = len(self.actions)
        self.actions.append(action)
        self.live[tag] = (self.now + delay, priority, tag)

    def cancel(self, index):
        if self.actions:
            self.live.pop(index % len(self.actions), None)

    def run(self, delay):
        until = None if delay is None else self.now + delay
        while self.live:
            key = min(self.live.values())
            if until is not None and key[0] > until:
                break
            del self.live[key[2]]
            self.now = key[0]
            self.trace.append(key)
            self.act(self.actions[key[2]])
        if until is not None and self.now < until:
            self.now = until


def _run_steps(steps):
    engine, model = _Engine(), _Model()
    for step in steps:
        for side in (engine, model):
            getattr(side, step[0])(*step[1:])
        assert engine.trace == model.trace
        assert engine.engine.now == model.now
        assert engine.engine.pending_events == len(model.live)
    return engine, model


@given(_STEPS)
@settings(max_examples=200, deadline=None)
def test_pop_always_returns_minimum_live_event(steps):
    """After every step, the engine agrees with the sorted reference model."""
    _run_steps(steps)


@given(_STEPS)
@settings(max_examples=200, deadline=None)
def test_draining_yields_sorted_remainder(steps):
    """After any step sequence, run() executes the live set in sorted order."""
    engine, model = _run_steps(steps)
    expected = sorted(model.live.values())
    executed = len(engine.trace)
    # Drop every callback's action, so the final drain runs exactly the live set.
    engine.actions = [None] * len(engine.actions)
    engine.run(None)
    assert engine.trace[executed:] == expected
    assert engine.engine.pending_events == 0


@given(st.lists(st.tuples(_DELAYS, _PRIORITIES), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_same_timestamp_ties_break_by_priority_then_insertion(schedules):
    """Pure schedules then one run: (time, priority, insertion) is total."""
    engine = _Engine()
    for delay, priority in schedules:
        engine.schedule(delay, priority, None)
    engine.run(None)
    assert engine.trace == sorted(engine.trace)
    assert len(engine.trace) == len(schedules)


def test_callback_schedules_same_timestamp_event_at_higher_priority():
    """A same-timestamp event that sorts earlier runs before the rest of it."""
    engine = SimulationEngine()
    order = []

    def first():
        order.append("first")
        engine.schedule(0.0, order.append, "inserted", priority=EventPriority.KERNEL)

    engine.schedule(1.0, first, priority=EventPriority.HARDWARE)
    engine.schedule(1.0, order.append, "tenant-a", priority=EventPriority.TENANT)
    engine.schedule(1.0, order.append, "tenant-b", priority=EventPriority.TENANT)
    engine.run()
    assert order == ["first", "inserted", "tenant-a", "tenant-b"]


def test_callback_cancels_later_same_timestamp_event():
    """A same-timestamp event cancelled by an earlier callback is skipped."""
    engine = SimulationEngine()
    order = []
    handles = {}

    def first():
        order.append("first")
        engine.cancel(handles["victim"])
        assert engine.pending_events == 1

    engine.schedule(1.0, first, priority=EventPriority.HARDWARE)
    handles["victim"] = engine.schedule(1.0, order.append, "victim")
    engine.schedule(1.0, order.append, "last", priority=EventPriority.TENANT)
    engine.run()
    assert order == ["first", "last"]
    assert engine.pending_events == 0
