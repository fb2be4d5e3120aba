"""Engine-level fault injection for single-machine experiments.

Faults are ordinary scheduled events: the injector translates a
:class:`~repro.config.schema.FaultPlanSpec` into engine callbacks at the
declared times, each acting through a seam the healthy path already has —
the scheduler's dispatch-rate factor for degraded cores, the controller's
telemetry attachment for dropout/staleness, and the controller's own
``stop()``/``start()``/``restore_state()`` lifecycle for crash recovery.
An unset sub-plan schedules nothing, so an empty plan leaves the
zero-fault path untouched.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config.schema import FaultPlanSpec
from ..simulation.events import EventPriority

__all__ = ["DegradedSignal", "SingleMachineFaultInjector"]


class DegradedSignal:
    """Telemetry-fault proxy over one signal the controller reads.

    The controller reads a latency window's ``p99(now)`` or an arrival
    model's forecast ``peak_in(start, end)`` through this proxy, while the
    collector keeps feeding the real window.  In ``"missing"`` mode reads
    return ``None`` (the metrics feed dropped); in ``"frozen"`` mode they
    return the last value served while healthy (a stale cache that keeps
    answering).  Neither mode reads the source.  Policies already treat
    ``None`` as "no data: hold".
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._mode = "ok"
        self._last_good: Optional[float] = None

    def set_mode(self, mode: str) -> None:
        self._mode = mode

    def p99(self, now: float) -> Optional[float]:
        return self._read(self._inner.p99, now)

    def peak_in(self, start: float, end: float) -> Optional[float]:
        return self._read(self._inner.peak_in, start, end)

    def _read(self, source, *args: float) -> Optional[float]:
        if self._mode == "missing":
            return None
        if self._mode == "frozen":
            return self._last_good
        value = source(*args)
        if value is not None:
            self._last_good = value
        return value


class SingleMachineFaultInjector:
    """Schedules one experiment's fault plan as engine events.

    ``install()`` must run before ``engine.run``; every fault window was
    validated to open inside the experiment, so all events schedule cleanly.
    The injector records what it did in ``events`` (``(time, description)``
    pairs) for the experiment harness to surface in result extras.
    """

    def __init__(
        self,
        plan: FaultPlanSpec,
        *,
        engine,
        kernel,
        controller=None,
        latency_proxy: Optional[DegradedSignal] = None,
        forecast_proxy: Optional[DegradedSignal] = None,
    ) -> None:
        self._plan = plan
        self._engine = engine
        self._kernel = kernel
        self._controller = controller
        self._latency_proxy = latency_proxy
        self._forecast_proxy = forecast_proxy
        self._checkpoint: Optional[dict] = None
        self.events: List[Tuple[float, str]] = []
        self.controller_restarts = 0

    # ------------------------------------------------------------- lifecycle
    def install(self) -> None:
        """Schedule every set fault's events on the engine."""
        degraded = self._plan.degraded
        if degraded is not None:
            self._engine.schedule_at(
                degraded.start,
                self._degrade_start,
                priority=EventPriority.KERNEL,
            )
            self._engine.schedule_at(
                degraded.end, self._degrade_end, priority=EventPriority.KERNEL
            )
        telemetry = self._plan.telemetry
        if telemetry is not None:
            # KERNEL priority: the mode flips before any same-instant
            # controller poll observes, so the window boundary is crisp.
            self._engine.schedule_at(
                telemetry.start,
                self._telemetry_start,
                priority=EventPriority.KERNEL,
            )
            self._engine.schedule_at(
                telemetry.end, self._telemetry_end, priority=EventPriority.KERNEL
            )
        crash = self._plan.controller_crash
        if crash is not None and self._controller is not None:
            # Periodic checkpoints up to the crash: recovery restores the
            # *last checkpoint*, not the state at the instant of the crash.
            tick = crash.checkpoint_interval
            while tick < crash.at:
                self._engine.schedule_at(
                    tick, self._checkpoint_controller, priority=EventPriority.MEASUREMENT
                )
                tick += crash.checkpoint_interval
            self._engine.schedule_at(
                crash.at, self._crash_controller, priority=EventPriority.KERNEL
            )
            self._engine.schedule_at(
                crash.at + crash.recovery_delay,
                self._recover_controller,
                priority=EventPriority.KERNEL,
            )

    # --------------------------------------------------------- degraded cores
    def _degrade_start(self) -> None:
        slowdown = self._plan.degraded.slowdown
        self._kernel.scheduler.set_speed_factor(1.0 / slowdown)
        self._record(f"cores degraded: {slowdown:g}x slowdown")

    def _degrade_end(self) -> None:
        self._kernel.scheduler.set_speed_factor(None)
        self._record("cores recovered: full speed")

    # ------------------------------------------------------- telemetry faults
    def _telemetry_start(self) -> None:
        mode = self._plan.telemetry.mode
        for proxy in (self._latency_proxy, self._forecast_proxy):
            if proxy is not None:
                proxy.set_mode(mode)
        self._record(f"telemetry {mode}")

    def _telemetry_end(self) -> None:
        for proxy in (self._latency_proxy, self._forecast_proxy):
            if proxy is not None:
                proxy.set_mode("ok")
        self._record("telemetry restored")

    # ------------------------------------------------- controller crash cycle
    def _checkpoint_controller(self) -> None:
        self._checkpoint = dict(self._controller.state_dict())

    def _crash_controller(self) -> None:
        self._controller.stop()
        self._record("controller crashed")

    def _recover_controller(self) -> None:
        self._controller.start()
        if self._checkpoint is not None:
            self._controller.restore_state(dict(self._checkpoint))
        self.controller_restarts += 1
        self._record("controller recovered from checkpoint")

    # --------------------------------------------------------------- internals
    def _record(self, description: str) -> None:
        self.events.append((float(self._engine.now), description))
