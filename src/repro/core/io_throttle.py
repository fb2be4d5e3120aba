"""Deficit-weighted-round-robin (DWRR) I/O throttling (Section 4.1).

The OS only exposes per-device I/O statistics, not per-process ones on the
device path, so PerfIso throttles in user space: every registered process has
a weight and optional limits; the throttler periodically measures per-process
IOPS (moving average), computes each process's *demand* (its weighted share
of the measured device throughput) and its *deficit* relative to the minimum
it is guaranteed, and then tightens or relaxes the secondary's token-bucket
caps in the kernel I/O stack accordingly.

The formulas follow the paper:

    D_i(t)   = sum over the window of  w_i * curr(t') / sum_j w_j
    Def_i(t) = (curr(t) - min(lim_i, D_i)) / min(lim_i, D_i)

A positive primary deficit (the primary is getting less than both its limit
and its weighted share) causes the secondary's caps to be halved; when the
primary has headroom the secondary's caps are relaxed multiplicatively back
toward the configured static ceiling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..config.schema import IoThrottleSpec
from ..errors import IsolationError
from ..hostos.process import OsProcess, TenantCategory
from ..hostos.syscalls import Kernel
from ..simulation.events import EventPriority

__all__ = ["DwrrIoThrottler", "ProcessIoState"]


@dataclass
class ProcessIoState:
    """Bookkeeping for one throttled process."""

    process: OsProcess
    weight: float
    guaranteed_iops: float
    #: Moving window of (time, completed-request count) samples.
    samples: Deque = None
    current_iops: float = 0.0
    demand: float = 0.0
    deficit: float = 0.0
    #: Current cap applied to a secondary process (None for the primary).
    applied_bandwidth_cap: Optional[float] = None
    applied_iops_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.samples is None:
            self.samples = deque()


class DwrrIoThrottler:
    """Adaptive per-process I/O throttling on one shared volume."""

    #: Multiplicative factors used to tighten/relax the secondary's caps.
    TIGHTEN_FACTOR = 0.5
    RELAX_FACTOR = 1.25
    #: Never throttle the secondary below these floors (forward progress).
    MIN_BANDWIDTH = 1024.0 * 1024.0
    MIN_IOPS = 4.0

    def __init__(
        self,
        kernel: Kernel,
        spec: IoThrottleSpec,
        volume: str = "hdd",
    ) -> None:
        self._kernel = kernel
        self._spec = spec
        self._volume = volume
        self._states: Dict[str, ProcessIoState] = {}
        self._running = False
        #: A scheduled-but-unfired _adjust exists; guards against a stop() ->
        #: start() cycle stacking a second adjustment chain on the old one.
        self._chain_pending = False
        self._weights = spec.weight_map()
        # statistics
        self.adjustments = 0
        self.tighten_events = 0

    # ------------------------------------------------------------ membership
    def register(self, process: OsProcess, weight: Optional[float] = None) -> ProcessIoState:
        """Track ``process``; its weight defaults to its tenant-class weight."""
        if process.name in self._states:
            return self._states[process.name]
        if weight is None:
            weight = self._weights.get(process.category, 1.0)
        if weight <= 0:
            raise IsolationError("I/O weight must be positive")
        guaranteed = self._spec.primary_min_iops if process.category == TenantCategory.PRIMARY else 0.0
        state = ProcessIoState(process=process, weight=weight, guaranteed_iops=guaranteed)
        self._states[process.name] = state
        if process.category == TenantCategory.SECONDARY:
            self._apply_caps(
                state,
                bandwidth=self._spec.secondary_bandwidth_limit or None,
                iops=self._spec.secondary_iops_limit or None,
            )
        return state

    def states(self) -> List[ProcessIoState]:
        return list(self._states.values())

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._running or not self._spec.enabled:
            return
        self._running = True
        self._schedule_adjust()

    def stop(self) -> None:
        self._running = False

    def clear_caps(self) -> None:
        """Lift every applied secondary cap (kill-switch / disable path)."""
        for state in self._states.values():
            if state.process.category == TenantCategory.SECONDARY:
                self._apply_caps(state, bandwidth=None, iops=None)

    def _schedule_adjust(self) -> None:
        if self._chain_pending:
            return
        self._chain_pending = True
        self._kernel.engine.schedule(
            self._spec.adjust_interval, self._adjust, priority=EventPriority.CONTROLLER
        )

    # ------------------------------------------------------------- internals
    def _measure(self) -> float:
        """Update per-process IOPS moving averages; return total volume IOPS."""
        now = self._kernel.now
        total = 0.0
        for state in self._states.values():
            completed = self._kernel.iostack.completions(state.process.name, self._volume)
            state.samples.append((now, completed))
            while state.samples and now - state.samples[0][0] > self._spec.window:
                state.samples.popleft()
            if len(state.samples) >= 2:
                t0, c0 = state.samples[0]
                t1, c1 = state.samples[-1]
                state.current_iops = (c1 - c0) / (t1 - t0) if t1 > t0 else 0.0
            else:
                state.current_iops = 0.0
            total += state.current_iops
        return total

    def _compute_demands(self, total_iops: float) -> None:
        weight_sum = sum(state.weight for state in self._states.values()) or 1.0
        for state in self._states.values():
            state.demand = state.weight * total_iops / weight_sum
            floor = state.guaranteed_iops if state.guaranteed_iops > 0 else state.demand
            reference = min(floor, state.demand) if state.guaranteed_iops > 0 else state.demand
            if reference <= 0:
                state.deficit = 0.0
            else:
                state.deficit = (state.current_iops - reference) / reference

    def _adjust(self) -> None:
        self._chain_pending = False
        if not self._running:
            return
        total = self._measure()
        self._compute_demands(total)
        self.adjustments += 1

        primary_states = [
            s for s in self._states.values() if s.process.category == TenantCategory.PRIMARY
        ]
        secondary_states = [
            s for s in self._states.values() if s.process.category == TenantCategory.SECONDARY
        ]
        primary_starved = any(s.deficit < -0.1 and s.current_iops > 0 for s in primary_states)

        for state in secondary_states:
            if primary_starved:
                self.tighten_events += 1
                new_bandwidth = max(
                    self.MIN_BANDWIDTH,
                    (state.applied_bandwidth_cap or self._spec.secondary_bandwidth_limit)
                    * self.TIGHTEN_FACTOR,
                )
                new_iops = None
                if self._spec.secondary_iops_limit:
                    new_iops = max(
                        self.MIN_IOPS,
                        (state.applied_iops_cap or self._spec.secondary_iops_limit)
                        * self.TIGHTEN_FACTOR,
                    )
                self._apply_caps(state, bandwidth=new_bandwidth, iops=new_iops)
            else:
                ceiling_bw = self._spec.secondary_bandwidth_limit or None
                ceiling_iops = self._spec.secondary_iops_limit or None
                current_bw = state.applied_bandwidth_cap
                if ceiling_bw is not None and current_bw is not None and current_bw < ceiling_bw:
                    self._apply_caps(
                        state,
                        bandwidth=min(ceiling_bw, current_bw * self.RELAX_FACTOR),
                        iops=(
                            min(ceiling_iops, (state.applied_iops_cap or ceiling_iops) * self.RELAX_FACTOR)
                            if ceiling_iops is not None
                            else None
                        ),
                    )
        self._schedule_adjust()

    def _apply_caps(
        self,
        state: ProcessIoState,
        bandwidth: Optional[float],
        iops: Optional[float],
    ) -> None:
        previous_iops = state.applied_iops_cap
        state.applied_bandwidth_cap = bandwidth
        state.applied_iops_cap = iops
        self._kernel.iostack.set_bandwidth_limit(state.process.name, self._volume, bandwidth)
        # Passing None through clears a previously-set kernel IOPS cap (the
        # kill switch lifts every cap); untouched-and-unset stays unset.
        if iops is not None or previous_iops is not None:
            self._kernel.iostack.set_iops_limit(state.process.name, self._volume, iops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DwrrIoThrottler(volume={self._volume!r}, processes={len(self._states)})"
