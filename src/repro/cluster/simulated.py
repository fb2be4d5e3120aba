"""Event-driven multi-machine cluster simulation (Figure 3 / Section 6.2).

Every IndexServe machine is the single-machine assembly
(:class:`~repro.experiments.single_machine.MachineAssembly`: hardware,
kernel, primary, secondaries, PerfIso, sampler and faults) built from
``ClusterScenario.node``, and all of them share one event engine.  Requests
enter at a top-level aggregator (TLA), are load-balanced round-robin across
rows, forwarded to a mid-level aggregator (MLA, which is one of the row's
IndexServe machines), fanned out to every partition in the row, aggregated at
the MLA (a real CPU burst on that colocated machine), and returned via the
TLA.  Latency is measured at the three levels the paper reports: local
IndexServe, MLA, and TLA.

The TLA machines are dedicated (not colocated), so they are modelled as pure
processing delays rather than full machine simulations; the colocation
effects the experiment studies all live on the IndexServe machines.

Simulating 44 machines at 4,000 QPS each is expensive in pure Python, so the
harness defaults to a scaled-down cluster (fewer partitions).  Per-machine
load — what determines interference — is independent of the partition count,
because every machine of a row serves every request routed to that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config.schema import ClusterScenario
from ..config.validation import validate_cluster_scenario
from ..experiments.single_machine import MachineAssembly
from ..hostos.thread import cpu_phase
from ..metrics.cpu import CpuBreakdown
from ..metrics.latency import LatencyCollector, LatencyStats
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority
from ..simulation.randomness import RandomStreams
from ..tenants.indexserve import QueryOutcome
from ..workloads.arrival import OpenLoopClient
from ..workloads.arrival_models import ConstantArrival
from ..workloads.query_trace import QueryTrace
from .layout import ClusterLayout, IndexMachineInfo

__all__ = ["ClusterScenario", "ClusterResult", "SimulatedCluster"]


@dataclass
class ClusterResult:
    """Latency per layer plus fleet-averaged CPU utilisation."""

    scenario: str
    local_latency: LatencyStats
    mla_latency: LatencyStats
    tla_latency: LatencyStats
    cpu: CpuBreakdown
    requests_completed: int

    def summary(self) -> Dict[str, float]:
        return {
            "local_avg_ms": self.local_latency.as_millis()["mean_ms"],
            "local_p95_ms": self.local_latency.as_millis()["p95_ms"],
            "local_p99_ms": self.local_latency.as_millis()["p99_ms"],
            "mla_avg_ms": self.mla_latency.as_millis()["mean_ms"],
            "mla_p95_ms": self.mla_latency.as_millis()["p95_ms"],
            "mla_p99_ms": self.mla_latency.as_millis()["p99_ms"],
            "tla_avg_ms": self.tla_latency.as_millis()["mean_ms"],
            "tla_p95_ms": self.tla_latency.as_millis()["p95_ms"],
            "tla_p99_ms": self.tla_latency.as_millis()["p99_ms"],
            "primary_cpu_pct": self.cpu.primary * 100.0,
            "secondary_cpu_pct": self.cpu.secondary * 100.0,
            "idle_cpu_pct": self.cpu.idle * 100.0,
        }


class _RequestState:
    """Per-request fan-out bookkeeping at the MLA."""

    __slots__ = ("remaining", "mla_start", "tla_start", "mla_node", "request_id")

    def __init__(self, request_id: int, remaining: int, tla_start: float, mla_start: float, mla_node: MachineAssembly) -> None:
        self.request_id = request_id
        self.remaining = remaining
        self.tla_start = tla_start
        self.mla_start = mla_start
        self.mla_node = mla_node


class SimulatedCluster:
    """Builds and runs the event-driven cluster experiment."""

    def __init__(self, scenario: ClusterScenario, name: str = "cluster") -> None:
        validate_cluster_scenario(scenario)
        workload = scenario.node.workload
        self._scenario = scenario
        self._name = name
        self.engine = SimulationEngine()
        self._streams = RandomStreams(scenario.node.seed)
        self._layout = ClusterLayout(scenario.cluster)
        self._nodes: Dict[str, MachineAssembly] = {
            info.name: MachineAssembly(
                self.engine, scenario.node, self._streams.spawn(info.name), name=info.name
            )
            for info in self._layout.index_machines
        }
        self._mla_collector = LatencyCollector(warmup_end=workload.warmup)
        self._tla_collector = LatencyCollector(warmup_end=workload.warmup)
        self._total_qps = workload.qps * scenario.cluster.rows
        self._trace = QueryTrace(
            scenario.node.indexserve,
            size=min(
                workload.trace_queries,
                max(2000, int(self._total_qps * workload.total_time / 4)),
            ),
            rng=self._streams.stream("cluster-trace"),
        )
        self._next_row = 0
        self._next_mla = 0
        self._next_request = 0
        self.requests_completed = 0

    @property
    def layout(self) -> ClusterLayout:
        return self._layout

    @property
    def nodes(self) -> Dict[str, MachineAssembly]:
        """Every IndexServe machine's assembly, keyed by its layout name."""
        return dict(self._nodes)

    # ------------------------------------------------------------------- run
    def run(self) -> ClusterResult:
        workload = self._scenario.node.workload
        client = OpenLoopClient(
            self.engine,
            self._trace,
            ConstantArrival(self._total_qps),
            workload,
            submit=self._submit_request,
            rng=self._streams.stream("cluster-arrivals"),
        )
        client.start()
        self.engine.run(until=workload.total_time)
        return self._collect()

    # ------------------------------------------------------------- internals
    def _submit_request(self, query, arrival_time: float) -> None:
        request_id = self._next_request
        self._next_request += 1
        cluster = self._scenario.cluster
        # TLA receive + processing, then forward to the chosen row's MLA.
        row = self._next_row
        self._next_row = (self._next_row + 1) % cluster.rows
        row_machines = self._layout.machines_in_row(row)
        mla_info = row_machines[self._next_mla % len(row_machines)]
        self._next_mla += 1
        delay_to_mla = cluster.network_hop_latency + cluster.tla_aggregation_cost + cluster.network_hop_latency
        self.engine.schedule(
            delay_to_mla,
            self._mla_receive,
            query,
            request_id,
            arrival_time,
            row_machines,
            mla_info.name,
            priority=EventPriority.TENANT,
        )

    def _mla_receive(
        self,
        query,
        request_id: int,
        tla_start: float,
        row_machines: List[IndexMachineInfo],
        mla_name: str,
    ) -> None:
        cluster = self._scenario.cluster
        mla_node = self._nodes[mla_name]
        state = _RequestState(
            request_id=request_id,
            remaining=len(row_machines),
            tla_start=tla_start,
            mla_start=self.engine.now,
            mla_node=mla_node,
        )
        for info in row_machines:
            node = self._nodes[info.name]
            hop = 0.0 if info.name == mla_name else cluster.network_hop_latency
            self.engine.schedule(
                hop,
                self._local_submit,
                node,
                query,
                state,
                priority=EventPriority.TENANT,
            )

    def _local_submit(self, node: MachineAssembly, query, state: _RequestState) -> None:
        node.primary.submit(
            query,
            callback=lambda outcome, s=state, n=node: self._local_done(n, s, outcome),
        )

    def _local_done(self, node: MachineAssembly, state: _RequestState, outcome: QueryOutcome) -> None:
        cluster = self._scenario.cluster
        hop = 0.0 if node is state.mla_node else cluster.network_hop_latency
        self.engine.schedule(hop, self._mla_response, state, priority=EventPriority.TENANT)

    def _mla_response(self, state: _RequestState) -> None:
        state.remaining -= 1
        if state.remaining > 0:
            return
        # All partitions answered: run the aggregation burst on the MLA machine.
        mla_node = state.mla_node
        mla_node.kernel.spawn_thread(
            mla_node.primary.process,
            [cpu_phase(self._scenario.cluster.mla_aggregation_cost)],
            name=f"mla-agg-{state.request_id}",
            on_complete=lambda _t, s=state: self._mla_done(s),
        )

    def _mla_done(self, state: _RequestState) -> None:
        cluster = self._scenario.cluster
        now = self.engine.now
        self._mla_collector.record(now, now - state.mla_start)
        # Response travels MLA -> TLA, TLA aggregates, responds to the client.
        delay = cluster.network_hop_latency + cluster.tla_aggregation_cost
        self.engine.schedule(delay, self._tla_done, state, priority=EventPriority.TENANT)

    def _tla_done(self, state: _RequestState) -> None:
        now = self.engine.now
        self._tla_collector.record(now, now - state.tla_start)
        self.requests_completed += 1

    def _collect(self) -> ClusterResult:
        # Pool every machine's post-warm-up samples for the "Local IndexServe"
        # bars, exactly as the paper averages across IndexServe machines.
        pooled = LatencyCollector()
        for node in self._nodes.values():
            pooled.extend(node.collector.samples())
        breakdowns = [node.sampler.overall() for node in self._nodes.values()]
        count = len(breakdowns) or 1
        cpu = CpuBreakdown(
            primary=sum(b.primary for b in breakdowns) / count,
            secondary=sum(b.secondary for b in breakdowns) / count,
            os=sum(b.os for b in breakdowns) / count,
            idle=sum(b.idle for b in breakdowns) / count,
        )
        return ClusterResult(
            scenario=self._name,
            local_latency=pooled.stats(),
            mla_latency=self._mla_collector.stats(),
            tla_latency=self._tla_collector.stats(),
            cpu=cpu,
            requests_completed=self.requests_completed,
        )
