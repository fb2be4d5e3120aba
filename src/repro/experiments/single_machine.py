"""Single-machine colocation experiments (Section 6.1).

:class:`MachineAssembly` builds one machine — hardware, kernel, primary,
secondaries, optionally PerfIso — from its :class:`ExperimentSpec`; every
node of the event-driven cluster is one too.  :class:`SingleMachineExperiment`
replays an open-loop query workload against one assembly and returns the
measurements the paper reports: query latency percentiles, the
Primary/Secondary/OS/Idle CPU breakdown, dropped queries and the secondary's
progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..config.schema import ExperimentSpec
from ..config.validation import validate_experiment
from ..core.controller import PerfIsoController
from ..faults.injector import DegradedSignal, SingleMachineFaultInjector
from ..hardware.machine import Machine
from ..hostos.syscalls import Kernel
from ..core.policies import policy_class
from ..metrics.cpu import CpuBreakdown, CpuUtilizationSampler
from ..metrics.latency import LatencyCollector, LatencyStats, SlidingLatencyWindow
from ..simulation.engine import SimulationEngine
from ..simulation.randomness import RandomStreams
from ..tenants.base import SecondaryTenant
from ..tenants.cpu_bully import CpuBullyTenant
from ..tenants.disk_bully import DiskBullyTenant
from ..tenants.hdfs import HdfsTenant
from ..tenants.indexserve import IndexServeTenant
from ..tenants.ml_training import MlTrainingTenant
from ..workloads.arrival import OpenLoopClient
from ..workloads.arrival_models import ARRIVAL_MODEL_STREAM, build_arrival_model
from ..workloads.query_trace import QueryTrace

__all__ = ["MachineAssembly", "SingleMachineResult", "SingleMachineExperiment"]

#: In-process memo of generated query traces.  A trace is a pure function of
#: ``(indexserve spec, size, seed)`` — the "trace" random stream it consumes
#: is derived from the experiment seed and used for nothing else — so
#: experiments sharing those three (every Figure 8 scenario at one load, every
#: fleet calibration point per group) can replay one generated trace instead
#: of regenerating it.  Sharing is sound because traces are immutable after
#: construction and reuse leaves every other random stream untouched.
_TRACE_MEMO: Dict[str, QueryTrace] = {}
_TRACE_MEMO_MAX = 32


def _trace_for(spec: ExperimentSpec, size: int, streams: RandomStreams) -> QueryTrace:
    from ..runtime.spec_hash import spec_hash

    key = spec_hash([spec.indexserve, size, spec.seed], namespace="query-trace")
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = QueryTrace(spec.indexserve, size=size, rng=streams.stream("trace"))
        if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[key] = trace
    return trace


@dataclass
class SingleMachineResult:
    """Measurements from one single-machine run."""

    scenario: str
    qps: float
    duration: float
    latency: LatencyStats
    cpu: CpuBreakdown
    queries_submitted: int
    queries_completed: int
    queries_dropped: int
    secondary_progress: float
    secondary_cpu_seconds: float
    controller_polls: int = 0
    controller_updates: int = 0
    secondary_core_history: List[int] = field(default_factory=list)
    #: Per-secondary ``{job name: {"progress": ..., "cpu_seconds": ...}}``.
    secondary_breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def drop_rate(self) -> float:
        total = self.queries_completed + self.queries_dropped
        return self.queries_dropped / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dictionary used by the benchmark harness tables."""
        row: Dict[str, float] = {
            "qps": self.qps,
            "p50_ms": self.latency.as_millis()["p50_ms"],
            "p95_ms": self.latency.as_millis()["p95_ms"],
            "p99_ms": self.latency.as_millis()["p99_ms"],
            "drop_rate_pct": self.drop_rate * 100.0,
            "primary_cpu_pct": self.cpu.primary * 100.0,
            "secondary_cpu_pct": self.cpu.secondary * 100.0,
            "os_cpu_pct": self.cpu.os * 100.0,
            "idle_cpu_pct": self.cpu.idle * 100.0,
            "secondary_progress": self.secondary_progress,
        }
        row.update(self.extra)
        return row


class MachineAssembly:
    """One IndexServe machine, built and started from its :class:`ExperimentSpec`.

    Builds the hardware, kernel, latency collector, IndexServe primary,
    secondaries, PerfIso controller (with its forecast, latency window and
    fault proxies), CPU sampler and fault injector on ``engine``, drawing
    from ``streams``, and starts them.  The load is the caller's: a
    single-machine run replays its workload against ``primary.submit``, and
    every node of a cluster serves the requests routed to its row.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        spec: ExperimentSpec,
        streams: RandomStreams,
        name: str = "node-0",
    ) -> None:
        self.machine = Machine(engine, spec.machine, name=name, rng=streams.stream("disks"))
        kernel = self.kernel = Kernel(engine, self.machine, spec.scheduler)

        warmup_end = spec.workload.warmup
        # Latency-feedback policies (capability flag ``uses_latency``) read a
        # sliding P99 window; the collector tees every served sample into it.
        # For every other policy the collector runs its unchanged hot path.
        latency_window = None
        if spec.perfiso is not None and policy_class(spec.perfiso.cpu).uses_latency:
            latency_window = SlidingLatencyWindow(window=spec.perfiso.cpu.window)
        self.latency_window = latency_window
        # Telemetry without a latency-feedback policy reads its windowed P99
        # straight off the collector's sample buffer at probe time (see
        # TelemetrySession.attach_single_machine) — maintaining a second
        # window structure just for probes taxed every served query and blew
        # the telemetry-overhead benchmark budget.
        self.collector = LatencyCollector(warmup_end=warmup_end, observer=latency_window)
        primary = self.primary = IndexServeTenant(
            kernel, spec.indexserve, rng=streams.stream("indexserve"), collector=self.collector
        )
        primary.start()

        # Arrival models draw only from their own named stream (the bursty
        # state path), so a trace-driven workload cannot perturb the draws of
        # any other component; constant-rate specs never touch the stream.
        # The model is also the controller's forecast.
        self.arrival_model = build_arrival_model(
            spec.workload,
            horizon=spec.workload.total_time,
            rng=streams.stream(ARRIVAL_MODEL_STREAM),
        )

        secondaries = self.secondaries = _build_secondaries(kernel, spec, streams)

        # An empty fault plan is exactly no plan: nothing is wrapped, nothing
        # is scheduled, and the run is byte-identical to a faultless spec
        # (fault schedules draw only from the reserved "faults" stream).
        faults = spec.faults if spec.faults is not None and not spec.faults.is_noop else None
        telemetry_fault = faults.telemetry if faults is not None else None
        latency_proxy: Optional[DegradedSignal] = None
        forecast_proxy: Optional[DegradedSignal] = None

        controller = self.controller = None
        if spec.perfiso is not None:
            controller = self.controller = PerfIsoController(kernel, spec.perfiso)
            controller.observe_primary(primary.process)
            # Forecast-driven policies ask the arrival model for the exact
            # peak over their horizon.
            forecast = self.arrival_model
            controller_window = latency_window
            if telemetry_fault is not None:
                # The controller reads its signals through fault proxies; the
                # real window still receives every collector sample and the
                # telemetry session still reads the raw sources.
                forecast = forecast_proxy = DegradedSignal(forecast)
                if latency_window is not None:
                    latency_proxy = DegradedSignal(latency_window)
                    controller_window = latency_proxy
            controller.attach_telemetry(forecast=forecast, latency_window=controller_window)

        self.sampler = CpuUtilizationSampler(engine, kernel, warmup_end=warmup_end)
        self.sampler.start()

        # Secondaries start first (they are immediately placed under the
        # controller), then the controller, then the fault schedule.
        for secondary in secondaries:
            secondary.start()
            if controller is not None:
                controller.manage(secondary)
        if controller is not None:
            controller.start()

        self.fault_injector: Optional[SingleMachineFaultInjector] = None
        if faults is not None:
            self.fault_injector = SingleMachineFaultInjector(
                faults,
                engine=engine,
                kernel=kernel,
                controller=controller,
                latency_proxy=latency_proxy,
                forecast_proxy=forecast_proxy,
            )
            self.fault_injector.install()


def _build_secondaries(
    kernel: Kernel, spec: ExperimentSpec, streams: RandomStreams
) -> List[SecondaryTenant]:
    # Random streams are keyed by job name, so the singleton jobs (whose
    # names match the historical stream names) simulate bit-identically
    # and additional jobs cannot perturb anyone else's draws.
    secondaries: List[SecondaryTenant] = []
    for job in spec.secondary_jobs():
        if job.kind == "cpu_bully":
            secondaries.append(CpuBullyTenant(kernel, job.tenant_spec, name=job.name))
        elif job.kind == "disk_bully":
            secondaries.append(
                DiskBullyTenant(
                    kernel, job.tenant_spec, rng=streams.stream(job.name), name=job.name
                )
            )
        elif job.kind == "hdfs":
            secondaries.append(
                HdfsTenant(kernel, job.tenant_spec, rng=streams.stream(job.name), name=job.name)
            )
        else:
            secondaries.append(
                MlTrainingTenant(
                    kernel, job.tenant_spec, rng=streams.stream(job.name), name=job.name
                )
            )
    return secondaries


class SingleMachineExperiment:
    """Builds and runs one single-machine colocation experiment."""

    def __init__(self, spec: ExperimentSpec, scenario: str = "custom") -> None:
        validate_experiment(spec)
        self._spec = spec
        self._scenario = scenario
        # Built on run(); kept as attributes so tests can inspect them.
        self.engine: Optional[SimulationEngine] = None
        self.assembly: Optional[MachineAssembly] = None

    @property
    def spec(self) -> ExperimentSpec:
        return self._spec

    # ------------------------------------------------------------------- run
    def run(self, telemetry=None) -> SingleMachineResult:
        """Run the experiment; ``telemetry`` optionally instruments it.

        ``telemetry`` is a :class:`~repro.telemetry.stream.TelemetrySession`.
        Instrumentation is strictly observational — probes draw from no
        random stream and a sliding latency window only *tees* samples the
        collector already took — so the result is byte-identical with or
        without it (pinned by ``tests/telemetry``).
        """
        spec = self._spec
        streams = RandomStreams(spec.seed)
        engine = self.engine = SimulationEngine()
        node = self.assembly = MachineAssembly(engine, spec, streams)

        # Time-varying workloads size the query trace by their mean offered
        # rate; at a constant rate mean_qps == qps.
        trace = _trace_for(
            spec,
            size=min(spec.workload.trace_queries, max(1000, int(spec.workload.mean_qps * spec.workload.total_time))),
            streams=streams,
        )
        client = OpenLoopClient(
            engine,
            trace,
            node.arrival_model,
            spec.workload,
            submit=node.primary.submit,
            rng=streams.stream("arrivals"),
        )
        client.start()

        if telemetry is not None:
            telemetry.attach_single_machine(engine, node, client, spec, label=self._scenario)

        engine.run(until=spec.workload.total_time)

        return self._collect(node, client)

    # ------------------------------------------------------------- internals
    def _collect(self, node: MachineAssembly, client) -> SingleMachineResult:
        spec = self._spec
        breakdown = {
            secondary.name: {
                "progress": secondary.progress(),
                "cpu_seconds": sum(p.cpu_time for p in secondary.processes()),
            }
            for secondary in node.secondaries
        }
        secondary_cpu = sum(entry["cpu_seconds"] for entry in breakdown.values())
        progress = sum(entry["progress"] for entry in breakdown.values())
        result = SingleMachineResult(
            scenario=self._scenario,
            qps=spec.workload.qps,
            duration=spec.workload.duration,
            latency=node.collector.stats(),
            cpu=node.sampler.overall(),
            queries_submitted=client.submitted,
            queries_completed=node.primary.completed,
            queries_dropped=node.primary.dropped,
            secondary_progress=progress,
            secondary_cpu_seconds=secondary_cpu,
            secondary_breakdown=breakdown,
        )
        if node.controller is not None:
            result.controller_polls = node.controller.polls
            result.controller_updates = node.controller.updates_applied
            result.secondary_core_history = list(node.controller.core_count_history)
        if spec.workload.arrival_kind != "constant":
            # The offered-load curve over the measured window, summarised so
            # trace-driven goldens pin the *shape* of the workload too.  The
            # mean samples the curve every 1/128 of the window, both ends
            # included; the peak is computed analytically (sampling would
            # miss a burst narrower than a step).
            start = spec.workload.warmup
            step = spec.workload.duration / 128.0
            samples = int((spec.workload.total_time - start) / step) + 1
            rate_at = node.arrival_model.rate_at
            result.extra["offered_mean_qps"] = float(
                np.mean([float(rate_at(start + index * step)) for index in range(samples)])
            )
            result.extra["offered_peak_qps"] = node.arrival_model.peak_in(
                spec.workload.warmup, spec.workload.total_time
            )
        if node.fault_injector is not None:
            # Only fault-bearing specs gain these keys, so zero-fault results
            # (and their pinned goldens) keep their exact historical shape.
            result.extra["fault_events"] = float(len(node.fault_injector.events))
            result.extra["controller_restarts"] = float(
                node.fault_injector.controller_restarts
            )
        return result
