"""The open-loop query client.

The paper's load generator replays the trace in an *open loop*: arrivals
follow a Poisson process at a configured rate regardless of how the server is
coping, so an overloaded server accumulates a backlog instead of implicitly
slowing the client down.  This property is essential — it is what turns a few
milliseconds of scheduling delay into the 29x tail blow-up of Figure 4.

One client drives every workload.  It reads the offered rate from an arrival
model (:mod:`repro.workloads.arrival_models`): a constant rate is
:class:`~repro.workloads.arrival_models.ConstantArrival`, the diurnal load of
the Figure 10 production experiment is one of the time-varying models.

Performance note: inter-arrival gaps are pre-drawn from the RNG in batches of
standard exponentials and scaled at use.  NumPy draws a size-``n`` batch from
exactly the same underlying bit stream as ``n`` single draws, and
``Generator.exponential(scale)`` is itself ``standard_exponential() * scale``,
so the generated arrival times are bit-identical to per-arrival draws — only
the per-query RNG-call overhead disappears.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config.schema import WorkloadSpec
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority
from ..simulation.randomness import BatchedDraws
from .arrival_models import ArrivalModel
from .query_trace import QueryDescriptor, QueryTrace

__all__ = ["OpenLoopClient"]

#: Callable invoked for every arriving query.
SubmitFn = Callable[[QueryDescriptor, float], None]

#: Floor on the pacing rate: a tiny positive rate paces a gap of at most
#: 1e9 s, never an infinite one.
MIN_RATE = 1e-9


class OpenLoopClient:
    """Open-loop Poisson query submitter at ``model``'s rate.

    The arrival process is a piecewise-constant-rate process: every arrival
    reads ``model.rate_at(now)`` once, which is accurate as long as the rate
    changes slowly relative to the inter-arrival gap (true for diurnal load).
    A rate that is not positive submits nothing and draws nothing; the client
    reads the rate again every ``workload.duration / 256`` seconds until it
    comes back, so the gap sequence after an idle window is unchanged.
    Arrivals stop at ``workload.total_time``.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        trace: QueryTrace,
        model: ArrivalModel,
        workload: WorkloadSpec,
        submit: SubmitFn,
        rng: np.random.Generator,
    ) -> None:
        self._engine = engine
        self._iterator = trace.cycle()
        self._model = model
        self._end_time = workload.total_time
        self._idle_recheck = workload.duration / 256.0
        self._submit = submit
        self._gaps = BatchedDraws(rng.standard_exponential)
        self.submitted = 0

    def start(self) -> None:
        """Schedule the first arrival, or a recheck if the rate starts at zero."""
        self._recheck()

    # ------------------------------------------------------------- internals
    def _pace(self, rate: float) -> None:
        """Schedule the next arrival at ``rate``, or a recheck if it is idle."""
        if rate > 0.0:
            gap = self._gaps.next() * (1.0 / max(MIN_RATE, float(rate)))
            self._engine.schedule(gap, self._arrive, priority=EventPriority.TENANT)
        else:
            self._engine.schedule(self._idle_recheck, self._recheck, priority=EventPriority.TENANT)

    def _recheck(self) -> None:
        now = self._engine._now
        if now < self._end_time:
            self._pace(self._model.rate_at(now))

    def _arrive(self) -> None:
        now = self._engine._now
        if now >= self._end_time:
            return
        rate = self._model.rate_at(now)
        if rate > 0.0:
            query = next(self._iterator)
            self.submitted += 1
            self._submit(query, now)
        self._pace(rate)
