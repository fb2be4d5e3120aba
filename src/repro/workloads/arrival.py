"""Open-loop query clients.

The paper's load generator replays the trace in an *open loop*: arrivals
follow a Poisson process at a configured rate regardless of how the server is
coping, so an overloaded server accumulates a backlog instead of implicitly
slowing the client down.  This property is essential — it is what turns a few
milliseconds of scheduling delay into the 29x tail blow-up of Figure 4.

Two clients are provided: a constant-rate client (single-machine and cluster
experiments) and a time-varying client driven by a rate function (the diurnal
load of the Figure 10 production experiment).

Performance note: inter-arrival gaps are pre-drawn from the RNG in batches of
standard exponentials and scaled at use.  NumPy draws a size-``n`` batch from
exactly the same underlying bit stream as ``n`` single draws, and
``Generator.exponential(scale)`` is itself ``standard_exponential() * scale``,
so the generated arrival times are bit-identical to the per-arrival draws the
clients used to make — only the per-query RNG-call overhead disappears.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from ..errors import TenantError
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority
from ..simulation.randomness import BatchedDraws
from .query_trace import QueryDescriptor, QueryTrace

__all__ = ["OpenLoopClient", "VariableRateClient"]

#: Callable invoked for every arriving query.
SubmitFn = Callable[[QueryDescriptor, float], None]


def _exponential_gaps(rng: np.random.Generator) -> BatchedDraws:
    """Batched standard-exponential gap draws (scaled by 1/rate at use)."""
    return BatchedDraws(rng.standard_exponential)


class OpenLoopClient:
    """Constant-rate open-loop (Poisson or uniform) query submitter."""

    def __init__(
        self,
        engine: SimulationEngine,
        trace: QueryTrace,
        qps: float,
        duration: float,
        submit: SubmitFn,
        rng: np.random.Generator,
        arrival_process: str = "poisson",
        start_time: float = 0.0,
    ) -> None:
        if qps <= 0:
            raise TenantError("qps must be positive")
        if duration <= 0:
            raise TenantError("duration must be positive")
        if arrival_process not in ("poisson", "uniform"):
            raise TenantError("arrival_process must be 'poisson' or 'uniform'")
        self._engine = engine
        self._iterator: Iterator[QueryDescriptor] = trace.cycle()
        self._qps = qps
        self._scale = 1.0 / qps
        self._end_time = start_time + duration
        self._submit = submit
        self._poisson = arrival_process == "poisson"
        self._gaps = _exponential_gaps(rng) if self._poisson else None
        self._start_time = start_time
        self.submitted = 0
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

    def start(self) -> None:
        """Schedule the first arrival."""
        first_delay = max(0.0, self._start_time - self._engine.now) + self._next_gap()
        self._engine.schedule(first_delay, self._arrive, priority=EventPriority.TENANT)

    # ------------------------------------------------------------- internals
    def _next_gap(self) -> float:
        if self._poisson:
            return self._gaps.next() * self._scale
        return self._scale

    def _arrive(self) -> None:
        now = self._engine._now
        if now >= self._end_time:
            self._finished = True
            return
        query = next(self._iterator)
        self.submitted += 1
        self._submit(query, now)
        self._engine.schedule(self._next_gap(), self._arrive, priority=EventPriority.TENANT)


class VariableRateClient:
    """Open-loop client whose rate follows ``rate_fn(now)`` queries/second.

    The arrival process is a piecewise-constant-rate Poisson process: the rate
    is re-evaluated at every arrival, which is accurate as long as the rate
    changes slowly relative to the inter-arrival gap (true for diurnal load).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        trace: QueryTrace,
        rate_fn: Callable[[float], float],
        duration: float,
        submit: SubmitFn,
        rng: np.random.Generator,
        start_time: float = 0.0,
        min_rate: float = 1.0,
        idle_recheck: Optional[float] = None,
    ) -> None:
        if duration <= 0:
            raise TenantError("duration must be positive")
        if min_rate <= 0:
            raise TenantError("min_rate must be positive")
        if idle_recheck is not None and idle_recheck <= 0:
            raise TenantError("idle_recheck must be positive")
        self._engine = engine
        self._iterator = trace.cycle()
        self._rate_fn = rate_fn
        self._end_time = start_time + duration
        self._submit = submit
        self._gaps = _exponential_gaps(rng)
        self._min_rate = min_rate
        #: When set, a zero rate suspends submissions entirely: the client
        #: polls the rate function every ``idle_recheck`` seconds (consuming
        #: no RNG draws, so the gap sequence after the idle window is
        #: unchanged) instead of scheduling a floored-rate arrival.  Without
        #: it ``min_rate`` doubles as both floor and re-evaluation heartbeat,
        #: which silently drives traffic through idle trace buckets.
        self._idle_recheck = idle_recheck
        self._start_time = start_time
        self.submitted = 0
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

    def start(self) -> None:
        lead = max(0.0, self._start_time - self._engine.now)
        if self._idle(self._engine.now + lead):
            self._engine.schedule(
                lead + self._idle_recheck, self._recheck, priority=EventPriority.TENANT
            )
            return
        # The first gap is paced by the rate at the start time, not at the
        # (possibly earlier) current time; for the default start_time=0 the
        # two coincide and the draw scaling is unchanged.
        delay = lead + self._gap(self._engine.now + lead)
        self._engine.schedule(delay, self._arrive, priority=EventPriority.TENANT)

    def current_rate(self, now: Optional[float] = None) -> float:
        time = self._engine.now if now is None else now
        return max(self._min_rate, float(self._rate_fn(time)))

    # ------------------------------------------------------------- internals
    def _gap(self, now: float) -> float:
        # Scale exactly as Generator.exponential(1.0 / rate) would, so the
        # gap sequence stays bit-identical to the unbatched draws.
        return self._gaps.next() * (1.0 / self.current_rate(now))

    def _idle(self, now: float) -> bool:
        return self._idle_recheck is not None and self._rate_fn(now) <= 0.0

    def _recheck(self) -> None:
        """Poll an idle rate function until it comes back to life."""
        now = self._engine.now
        if now >= self._end_time:
            self._finished = True
            return
        if self._idle(now):
            self._engine.schedule(self._idle_recheck, self._recheck, priority=EventPriority.TENANT)
            return
        self._engine.schedule(self._gap(now), self._arrive, priority=EventPriority.TENANT)

    def _arrive(self) -> None:
        now = self._engine.now
        if now >= self._end_time:
            self._finished = True
            return
        if self._idle(now):
            # The rate hit zero while this arrival was in flight; drop into
            # polling without submitting.
            self._engine.schedule(self._idle_recheck, self._recheck, priority=EventPriority.TENANT)
            return
        query = next(self._iterator)
        self.submitted += 1
        self._submit(query, now)
        self._engine.schedule(self._gap(now), self._arrive, priority=EventPriority.TENANT)
