"""The PerfIso user-mode controller service (Section 4).

The controller owns one job object holding every secondary-tenant process on
the machine and drives three mechanisms:

* the CPU isolation policy (blind isolation by default), fed by a tight poll
  loop over the idle-core syscall — polling is continuous, but the job object
  is only *updated* when the policy asks for a change (the poll/update split
  the paper emphasises, because pointless updates are themselves harmful);
* the DWRR disk I/O throttler;
* the memory guard.

It also implements two of the operational features the paper calls out for
production deployment: a kill switch that instantly removes every restriction
(debugging aid) and full recoverability from a serialisable state snapshot.
"""

from __future__ import annotations

import time as _time
import warnings
from typing import Dict, FrozenSet, List, Optional

from ..config.schema import PerfIsoSpec
from ..errors import IsolationError
from ..hostos.jobobject import JobObject
from ..hostos.process import OsProcess
from ..hostos.syscalls import Kernel
from ..simulation.events import EventPriority
from ..tenants.base import SecondaryTenant
from .io_throttle import DwrrIoThrottler
from .memory_guard import MemoryGuard
from .policies import (
    AllocationDecision,
    ControllerObservation,
    CpuIsolationPolicy,
    policy_from_spec,
)

__all__ = ["PerfIsoController"]


class PerfIsoController:
    """One machine's PerfIso service instance."""

    JOB_NAME = "perfiso-secondary"

    def __init__(
        self,
        kernel: Kernel,
        spec: Optional[PerfIsoSpec] = None,
        io_volume: str = "hdd",
    ) -> None:
        self._kernel = kernel
        self._spec = spec if spec is not None else PerfIsoSpec()
        self._job: JobObject = kernel.create_job_object(self.JOB_NAME)
        self._policy: CpuIsolationPolicy = policy_from_spec(self._spec)
        self._io_throttler = DwrrIoThrottler(kernel, self._spec.io_throttle, volume=io_volume)
        self._memory_guard = MemoryGuard(kernel, self._spec.memory_guard, self._job)
        self._enabled = self._spec.enabled
        self._running = False
        #: The pending poll event, cancelled on stop() so a stopped-then-
        #: restarted controller (crash recovery) cannot resurrect its old
        #: poll chain alongside the new one and poll at double rate.
        self._poll_event = None
        self._current_core_count: Optional[int] = None
        # Optional telemetry sources for observation-driven policies; polled
        # lazily and only for policies that declare the matching capability.
        self._forecast = None
        self._latency_window = None
        # Optional span tracer (telemetry subsystem).  None keeps _poll on
        # its untraced path; decisions and results are unaffected either way.
        self._tracer = None
        # statistics
        self.polls = 0
        self.updates_applied = 0
        self.core_count_history: List[int] = []

    # ------------------------------------------------------------ properties
    @property
    def spec(self) -> PerfIsoSpec:
        return self._spec

    @property
    def job(self) -> JobObject:
        return self._job

    @property
    def policy(self) -> CpuIsolationPolicy:
        return self._policy

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def secondary_core_count(self) -> Optional[int]:
        """Number of cores the secondary may currently use (None = all)."""
        return self._current_core_count

    @property
    def secondary_affinity(self) -> Optional[FrozenSet[int]]:
        return self._job.cpu_affinity

    # ------------------------------------------------------------ membership
    def manage(self, tenant: SecondaryTenant) -> None:
        """Place a secondary tenant under PerfIso's job object."""
        tenant.attach_to_job(self._job)
        if self._spec.io_throttle.enabled:
            for process in tenant.processes():
                self._io_throttler.register(process)

    def observe_primary(self, process: OsProcess) -> None:
        """Register the primary for I/O measurement (never restricted)."""
        self._io_throttler.register(process)

    def attach_telemetry(self, forecast=None, latency_window=None) -> None:
        """Connect optional telemetry for observation-driven policies.

        ``forecast`` is an :class:`~repro.workloads.arrival_models.ArrivalModel`
        (for ``uses_forecast`` policies); ``latency_window`` is a
        :class:`~repro.metrics.latency.SlidingLatencyWindow` fed by the
        experiment's collector (for ``uses_latency`` policies).  Attaching
        telemetry a policy does not read has no effect on its decisions.
        """
        if forecast is not None:
            self._forecast = forecast
        if latency_window is not None:
            self._latency_window = latency_window

    def attach_tracer(self, tracer) -> None:
        """Stream one ``controller.decide`` span per enabled poll to ``tracer``.

        Tracing is observational only: the policy sees the identical
        observation and its decision is applied identically, so traced and
        untraced runs produce the same simulation results.
        """
        self._tracer = tracer

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Apply the initial policy and begin the poll loop."""
        if self._running:
            raise IsolationError("PerfIso controller started twice")
        self._running = True
        if self._enabled:
            self._apply(self._policy.initial_decision(self._kernel.logical_cores))
            self._io_throttler.start()
            self._memory_guard.start()
        self._poll_event = self._kernel.engine.schedule(
            self._spec.poll_interval, self._poll, priority=EventPriority.CONTROLLER
        )

    def stop(self) -> None:
        self._running = False
        self._kernel.engine.cancel(self._poll_event)
        self._poll_event = None
        self._io_throttler.stop()
        self._memory_guard.stop()

    # ------------------------------------------------------------ kill switch
    def disable(self) -> None:
        """The kill switch: immediately lift every restriction (Section 4.2)."""
        self._enabled = False
        self._job.set_cpu_affinity(None)
        self._job.set_cpu_rate(None)
        self._current_core_count = None
        self._io_throttler.stop()
        self._io_throttler.clear_caps()
        self._memory_guard.stop()

    def enable(self) -> None:
        """Re-enable isolation after the kill switch was used."""
        if self._enabled:
            return
        self._enabled = True
        self._apply(self._policy.initial_decision(self._kernel.logical_cores))
        if self._running:
            self._io_throttler.start()
            self._memory_guard.start()

    # -------------------------------------------------------------- recovery
    def state_dict(self) -> Dict[str, object]:
        """Serialisable controller state: the checkpoint crash recovery restores."""
        return {
            "enabled": self._enabled,
            "cpu_policy": self._policy.name,
            "current_core_count": self._current_core_count,
            "cpu_rate": self._job.cpu_rate_fraction,
            "updates_applied": self.updates_applied,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume after a crash: re-apply the last known allocation.

        An enabled snapshot with neither a core count nor a CPU rate means
        the controller was deliberately unrestricted at crash time — the
        replacement must *lift* any restriction it already applied, not keep
        it.  A policy mismatch between the snapshot and this instance's
        configuration is tolerated with a warning: the snapshot allocation is
        restored verbatim, then future polls follow the configured policy.
        """
        snapshot_policy = state.get("cpu_policy")
        if snapshot_policy is not None and snapshot_policy != self._policy.name:
            warnings.warn(
                f"controller snapshot was taken under cpu_policy={snapshot_policy!r} "
                f"but this instance is configured for {self._policy.name!r}; "
                "restoring the snapshot allocation, then following the configured "
                "policy",
                RuntimeWarning,
                stacklevel=2,
            )
        self._enabled = bool(state.get("enabled", True))
        # Carry the update counter across the restart; a re-application
        # below then counts as one more genuine job-object update.
        self.updates_applied = int(state.get("updates_applied", self.updates_applied))
        if not self._enabled:
            # The kill switch was active at crash time: mirror it without
            # counting a job-object update (disable() semantics).
            self._job.set_cpu_affinity(None)
            self._job.set_cpu_rate(None)
            self._current_core_count = None
            return
        core_count = state.get("current_core_count")
        cpu_rate = state.get("cpu_rate")
        if core_count is not None:
            self._apply(AllocationDecision(core_count=int(core_count)))
        elif cpu_rate is not None:
            self._apply(AllocationDecision(cpu_rate=float(cpu_rate)))
        else:
            self._apply(AllocationDecision(unrestricted=True))

    # ------------------------------------------------------------- internals
    def _poll(self) -> None:
        if not self._running:
            return
        self.polls += 1
        if self._enabled:
            if self._tracer is None:
                decision = self._policy.decide(self._observe())
                if decision is not None:
                    self._apply(decision)
            else:
                self._traced_decide()
        self._poll_event = self._kernel.engine.schedule(
            self._spec.poll_interval, self._poll, priority=EventPriority.CONTROLLER
        )

    def _traced_decide(self) -> None:
        # One span per poll at millisecond cadence: emitted via record()
        # with explicit wall timing because the contextmanager span form's
        # generator machinery costs more than the decision itself, which
        # is what pushed telemetry overhead over its benchmark budget.
        # Neither decide() nor _apply() advances simulation time, so
        # record()'s sim_duration of 0.0 matches the traced block exactly.
        observation = self._observe()
        started_wall = _time.perf_counter()
        try:
            decision = self._policy.decide(observation)
            if decision is not None:
                self._apply(decision)
        except BaseException as exc:
            self._tracer.record(
                "controller.decide",
                wall_ms=(_time.perf_counter() - started_wall) * 1e3,
                status="error",
                policy=self._policy.name,
                idle_cores=observation.idle_cores,
                cores_before=observation.current_core_count,
                exception=type(exc).__name__,
            )
            raise
        self._tracer.record(
            "controller.decide",
            wall_ms=(_time.perf_counter() - started_wall) * 1e3,
            policy=self._policy.name,
            idle_cores=observation.idle_cores,
            cores_before=observation.current_core_count,
            decision=self._describe(decision),
        )

    @staticmethod
    def _describe(decision: Optional[AllocationDecision]) -> str:
        if decision is None:
            return "hold"
        if decision.unrestricted:
            return "unrestricted"
        if decision.cpu_rate is not None:
            return f"cpu_rate={decision.cpu_rate:.3f}"
        return f"cores={decision.core_count}"

    def _observe(self) -> ControllerObservation:
        """One poll's observation, gathering only what the policy reads."""
        policy = self._policy
        now = self._kernel.engine.now
        windowed_p99 = None
        if policy.uses_latency and self._latency_window is not None:
            windowed_p99 = self._latency_window.p99(now)
        forecast_peak = None
        if policy.uses_forecast and self._forecast is not None:
            horizon = policy.forecast_horizon(self._spec.poll_interval)
            forecast_peak = self._forecast.peak_in(now, now + horizon)
        return ControllerObservation(
            now=now,
            total_cores=self._kernel.logical_cores,
            idle_cores=self._kernel.idle_core_count(),
            current_core_count=self._current_core_count,
            poll_interval=self._spec.poll_interval,
            windowed_p99=windowed_p99,
            forecast_peak_qps=forecast_peak,
        )

    def _apply(self, decision: AllocationDecision) -> None:
        self.updates_applied += 1
        if decision.unrestricted:
            self._job.set_cpu_affinity(None)
            self._job.set_cpu_rate(None)
            self._current_core_count = None
            return
        if decision.cpu_rate is not None:
            self._job.set_cpu_affinity(None)
            self._job.set_cpu_rate(decision.cpu_rate)
            self._current_core_count = None
            return
        count = decision.core_count
        order = self._kernel.machine.topology.secondary_allocation_order()
        allowed = frozenset(order[:count])
        self._job.set_cpu_rate(None)
        self._job.set_cpu_affinity(allowed)
        self._current_core_count = count
        self.core_count_history.append(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PerfIsoController(policy={self._policy.name}, enabled={self._enabled}, "
            f"cores={self._current_core_count})"
        )
