"""The synthetic primary tenant: an IndexServe-like query serving service.

Behavioural model (calibrated to Section 5/6 of the paper):

* A query arrives and immediately fans out into a *burst* of worker threads —
  this is the "up to 15 threads become ready within 5 microseconds" property
  that makes static isolation insufficient.
* Each worker may first read an index chunk from the SSD volume (cache miss)
  and then burns a short, heavy-tailed CPU burst.
* When the last worker finishes, a short aggregation burst merges the results
  and a log record is written asynchronously to the shared HDD volume.  The
  query's latency ends there: the response's egress is not simulated.
* Queries that exceed the timeout are dropped: remaining workers are killed
  and the query is counted in the drop statistics (Figure 7c).
* Under backlog the service adaptively spawns extra workers per query (the
  compensation behaviour the paper observes in Section 6.1.2), which raises
  primary CPU usage when it is being interfered with.

The primary always runs unrestricted: it is never placed in a job object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..config.schema import IndexServeSpec
from ..errors import TenantError
from ..hostos.process import OsProcess, TenantCategory
from ..hostos.syscalls import Kernel
from ..hostos.thread import SimThread, cpu_phase, io_phase
from ..metrics.latency import LatencyCollector
from ..simulation.events import EventPriority
from ..units import micros
from ..workloads.query_trace import QueryDescriptor
from .base import Tenant

__all__ = ["QueryOutcome", "IndexServeTenant"]

#: Kernel overhead charged per query for network receive + request setup.
QUERY_OS_OVERHEAD = micros(15)


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one query, delivered to the optional completion callback."""

    query_id: int
    arrival_time: float
    completion_time: float
    latency: float
    dropped: bool


class _QueryRuntime:
    """Mutable in-flight state of one query (slots: built once per query on
    the submit hot path, so attribute storage must stay as lean as possible)."""

    __slots__ = (
        "descriptor",
        "arrival_time",
        "remaining_workers",
        "worker_threads",
        "timeout_event",
        "dropped",
        "done",
        "callback",
    )

    def __init__(
        self,
        descriptor: QueryDescriptor,
        arrival_time: float,
        remaining_workers: int,
        callback: Optional[Callable[[QueryOutcome], None]] = None,
    ) -> None:
        self.descriptor = descriptor
        self.arrival_time = arrival_time
        self.remaining_workers = remaining_workers
        self.worker_threads: List[SimThread] = []
        self.timeout_event: Optional[object] = None
        self.dropped = False
        self.done = False
        self.callback = callback


class IndexServeTenant(Tenant):
    """The latency-sensitive primary service of one machine."""

    def __init__(
        self,
        kernel: Kernel,
        spec: IndexServeSpec,
        rng: np.random.Generator,
        collector: Optional[LatencyCollector] = None,
        name: str = "indexserve",
    ) -> None:
        super().__init__(kernel, name)
        # The clock is read as ``engine._now`` on the per-query path.
        self._engine = kernel.engine
        self._spec = spec
        self._rng = rng
        self._collector = collector if collector is not None else LatencyCollector()
        self._process: Optional[OsProcess] = None
        self._queries: Dict[int, _QueryRuntime] = {}
        self._next_runtime_id = 0
        # statistics
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        self.adaptive_boosts = 0

    # ------------------------------------------------------------ properties
    @property
    def spec(self) -> IndexServeSpec:
        return self._spec

    @property
    def collector(self) -> LatencyCollector:
        return self._collector

    @property
    def process(self) -> OsProcess:
        if self._process is None:
            raise TenantError("IndexServe has not been started")
        return self._process

    @property
    def in_flight(self) -> int:
        return len(self._queries)

    def processes(self) -> List[OsProcess]:
        return [self._process] if self._process is not None else []

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._started:
            raise TenantError("IndexServe started twice")
        self._started = True
        self._process = self._kernel.create_process(
            self._name,
            category=TenantCategory.PRIMARY,
            memory_bytes=self._spec.memory_footprint_bytes,
        )

    # -------------------------------------------------------------- queries
    def submit(
        self,
        query: QueryDescriptor,
        arrival_time: Optional[float] = None,
        callback: Optional[Callable[[QueryOutcome], None]] = None,
    ) -> None:
        """Process ``query``; ``callback`` (if given) receives the outcome."""
        if not self._started:
            raise TenantError("IndexServe is not running")
        kernel = self._kernel
        engine = self._engine
        spec = self._spec
        now = engine._now
        arrival = now if arrival_time is None else arrival_time
        self.submitted += 1
        kernel.accounting.charge_os(QUERY_OS_OVERHEAD)

        runtime_id = self._next_runtime_id
        self._next_runtime_id += 1

        demands = query.worker_demands
        misses = query.cache_misses
        # Adaptive parallelism: compensate for a backlog by fanning out wider.
        # The total index-lookup work stays the same; the largest chunks are
        # split across extra workers (plus a small per-split overhead), which
        # shortens the critical path at the cost of more ready threads and a
        # higher primary CPU share — the compensation the paper observes.
        if (
            spec.adaptive_parallelism
            and len(self._queries) > spec.adaptive_threshold
            and len(demands) < spec.workers_per_query_max
        ):
            self.adaptive_boosts += 1
            demands = list(demands)
            misses = list(misses)
            extra = min(
                spec.adaptive_extra_workers,
                spec.workers_per_query_max - len(demands),
            )
            overhead = spec.adaptive_split_overhead
            for _ in range(extra):
                # First index of the maximum, like np.argmax, without the
                # list->array conversion.
                largest = max(range(len(demands)), key=demands.__getitem__)
                half = demands[largest] / 2.0
                demands[largest] = half + overhead
                demands.append(half + overhead)
                misses.append(False)

        runtime = _QueryRuntime(
            descriptor=query,
            arrival_time=arrival,
            remaining_workers=len(demands),
            callback=callback,
        )
        self._queries[runtime_id] = runtime
        runtime.timeout_event = engine.schedule(
            max(0.0, arrival + spec.timeout - now),
            self._timeout,
            runtime_id,
            priority=EventPriority.TENANT,
        )

        # One shared completion callback per query (not one per worker).
        worker_done = lambda _t, rid=runtime_id: self._worker_done(rid)  # noqa: E731
        spawn_thread = kernel.spawn_thread
        process = self._process
        worker_threads = runtime.worker_threads
        miss_phase = None
        parse_cost = spec.parse_cost
        name = self._name
        for index, demand in enumerate(demands):
            if misses[index]:
                if miss_phase is None:
                    miss_phase = io_phase("ssd", "read", spec.cache_miss_read_bytes)
                program = [miss_phase, cpu_phase(demand + (parse_cost if index == 0 else 0.0))]
            else:
                program = [cpu_phase(demand + (parse_cost if index == 0 else 0.0))]
            worker_threads.append(
                spawn_thread(
                    process,
                    program,
                    name=f"{name}-q{runtime_id}-w{index}",
                    on_complete=worker_done,
                )
            )

    # ------------------------------------------------------------- internals
    def _worker_done(self, runtime_id: int) -> None:
        runtime = self._queries.get(runtime_id)
        if runtime is None or runtime.dropped or runtime.done:
            return
        runtime.remaining_workers -= 1
        if runtime.remaining_workers > 0:
            return
        # All workers finished: run the aggregation burst.
        self._kernel.spawn_thread(
            self._process,
            [cpu_phase(self._spec.aggregate_cost)],
            name=f"{self._name}-q{runtime_id}-agg",
            on_complete=lambda _t, rid=runtime_id: self._query_done(rid),
        )

    def _query_done(self, runtime_id: int) -> None:
        runtime = self._queries.pop(runtime_id, None)
        if runtime is None or runtime.dropped:
            return
        runtime.done = True
        engine = self._engine
        if runtime.timeout_event is not None:
            engine.cancel(runtime.timeout_event)
        now = engine._now
        latency = now - runtime.arrival_time
        self.completed += 1
        self._collector.record(now, latency)
        if self._spec.log_bytes_per_query > 0:
            self._kernel.submit_io(
                self._process, "hdd", "write", self._spec.log_bytes_per_query
            )
        if runtime.callback is not None:
            runtime.callback(
                QueryOutcome(
                    query_id=runtime.descriptor.query_id,
                    arrival_time=runtime.arrival_time,
                    completion_time=now,
                    latency=latency,
                    dropped=False,
                )
            )

    def _timeout(self, runtime_id: int) -> None:
        runtime = self._queries.pop(runtime_id, None)
        if runtime is None or runtime.done:
            return
        runtime.dropped = True
        self.dropped += 1
        now = self._kernel.now
        self._collector.record_drop(now)
        for thread in runtime.worker_threads:
            if not thread.terminated:
                self._kernel.terminate_thread(thread)
        if runtime.callback is not None:
            runtime.callback(
                QueryOutcome(
                    query_id=runtime.descriptor.query_id,
                    arrival_time=runtime.arrival_time,
                    completion_time=now,
                    latency=now - runtime.arrival_time,
                    dropped=True,
                )
            )

    # -------------------------------------------------------------- reports
    def drop_rate(self) -> float:
        total = self.completed + self.dropped
        return self.dropped / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexServeTenant(submitted={self.submitted}, completed={self.completed}, "
            f"dropped={self.dropped}, in_flight={self.in_flight})"
        )
