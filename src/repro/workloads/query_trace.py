"""Synthetic query traces.

The paper replays a trace of 500k real user queries from early 2017.  That
trace is proprietary, so we generate a synthetic one: each query carries the
properties that actually influence the simulation — worker fan-out, per-worker
CPU demand, and which workers miss the in-memory index cache (and therefore
read from the SSD volume).  Traces are fully determined by ``(spec, seed)``
and can be replayed any number of times at any arrival rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..config.schema import IndexServeSpec
from ..errors import TenantError
from ..units import millis

__all__ = ["QueryDescriptor", "QueryTrace"]


@dataclass(frozen=True)
class QueryDescriptor:
    """The immutable description of one query in the trace."""

    query_id: int
    worker_demands: Tuple[float, ...]
    cache_misses: Tuple[bool, ...]

    @property
    def worker_count(self) -> int:
        return len(self.worker_demands)

    @property
    def total_cpu_demand(self) -> float:
        return float(sum(self.worker_demands))


class QueryTrace:
    """A replayable sequence of :class:`QueryDescriptor` objects."""

    def __init__(
        self,
        spec: IndexServeSpec,
        size: int,
        rng: np.random.Generator,
    ) -> None:
        if size < 1:
            raise TenantError("a query trace needs at least one query")
        if spec.workers_per_query_min > spec.workers_per_query_max:
            raise TenantError("worker fan-out bounds are inverted")
        self._spec = spec
        self._queries: List[QueryDescriptor] = []
        # The generation loop below draws from the RNG in exactly the order
        # the fan-out / service-time model objects do (one Poisson scalar,
        # one log-normal batch, one uniform batch per query), with the
        # per-query model-object method calls and attribute chases hoisted —
        # trace construction runs once per experiment and showed up in
        # profiles.  See WorkerFanoutModel / WorkerServiceTimeModel for the
        # reference formulation; the two must stay draw-for-draw identical.
        min_workers = spec.workers_per_query_min
        max_workers = spec.workers_per_query_max
        lam = max(0.1, spec.workers_per_query_mean - min_workers)
        mu = spec.worker_service_mu_ms
        sigma = spec.worker_service_sigma
        cap = spec.worker_service_cap
        scale = millis(1.0)
        miss_rate = spec.cache_miss_rate
        poisson = rng.poisson
        lognormal = rng.lognormal
        random = rng.random
        minimum = np.minimum
        append = self._queries.append
        for query_id in range(size):
            workers = int(min(max(min_workers + int(poisson(lam)), min_workers), max_workers))
            if workers < 1:
                raise TenantError("must sample at least one worker burst")
            draws = lognormal(mean=mu, sigma=sigma, size=workers)
            demands = tuple(minimum(draws * scale, cap).tolist())
            misses = tuple((random(workers) < miss_rate).tolist())
            append(
                QueryDescriptor(query_id=query_id, worker_demands=demands, cache_misses=misses)
            )

    def __len__(self) -> int:
        return len(self._queries)

    def __getitem__(self, index: int) -> QueryDescriptor:
        return self._queries[index]

    @property
    def spec(self) -> IndexServeSpec:
        return self._spec

    def queries(self) -> Sequence[QueryDescriptor]:
        return tuple(self._queries)

    def cycle(self) -> Iterator[QueryDescriptor]:
        """Iterate over the trace forever, wrapping around at the end."""
        index = 0
        size = len(self._queries)
        while True:
            yield self._queries[index]
            index = (index + 1) % size

    # ------------------------------------------------------------ statistics
    def mean_worker_count(self) -> float:
        return float(np.mean([q.worker_count for q in self._queries]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryTrace(size={len(self._queries)}, mean_workers={self.mean_worker_count():.2f})"
