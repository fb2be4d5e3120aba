"""The kernel I/O stack: request submission, per-process throttling, accounting.

PerfIso cannot see which process caused a given device operation from the
hardware counters alone (Section 4.1), so it throttles I/O *above* the device
layer: every request passes through per-process token buckets (bandwidth and
IOPS) before it reaches the volume.  The DWRR throttler in
:mod:`repro.core.io_throttle` drives those buckets; static limits (e.g. the
HDFS caps of Section 5.3) use the same mechanism.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..errors import ResourceError
from ..hardware.disk import IoRequest
from ..hardware.machine import Machine
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority
from ..units import micros
from .accounting import CpuAccounting
from .process import OsProcess

__all__ = ["IoLimits", "IoStack"]

#: Kernel CPU overhead charged per completed I/O request (interrupt + stack).
IO_REQUEST_OS_OVERHEAD = micros(8)


class IoLimits:
    """Token-bucket limits for one (process, volume) pair."""

    __slots__ = (
        "bandwidth_limit",
        "iops_limit",
        "byte_tokens",
        "iops_tokens",
        "last_refill",
        "pending",
        "drain_scheduled",
    )

    def __init__(self) -> None:
        self.bandwidth_limit: Optional[float] = None
        self.iops_limit: Optional[float] = None
        self.byte_tokens = 0.0
        self.iops_tokens = 0.0
        self.last_refill = 0.0
        self.pending: Deque[tuple] = deque()
        self.drain_scheduled = False

    @property
    def unlimited(self) -> bool:
        return self.bandwidth_limit is None and self.iops_limit is None


class IoStack:
    """Routes tenant I/O to volumes, enforcing per-process limits."""

    #: Burst window allowed by the token buckets (seconds of accumulated rate).
    BURST_WINDOW = 0.1

    def __init__(
        self,
        engine: SimulationEngine,
        machine: Machine,
        accounting: CpuAccounting,
    ) -> None:
        self._engine = engine
        self._machine = machine
        self._accounting = accounting
        self._limits: Dict[Tuple[str, str], IoLimits] = {}
        # statistics
        self.throttle_delays = 0
        #: The machine's one I/O ledger: completed requests and bytes per
        #: (process, volume), read through :meth:`completions` (the DWRR
        #: throttler's signal) and :meth:`completed_bytes`.
        self.completions_by_key: Dict[Tuple[str, str], int] = {}
        self.bytes_by_key: Dict[Tuple[str, str], int] = {}

    # --------------------------------------------------------------- limits
    def _limits_for(self, process_name: str, volume: str) -> IoLimits:
        key = (process_name, volume)
        limits = self._limits.get(key)
        if limits is None:
            limits = IoLimits()
            limits.last_refill = self._engine.now
            self._limits[key] = limits
        return limits

    def set_bandwidth_limit(
        self, process_name: str, volume: str, bytes_per_s: Optional[float]
    ) -> None:
        """Cap a process's throughput on ``volume`` (``None`` removes the cap)."""
        if bytes_per_s is not None and bytes_per_s <= 0:
            raise ResourceError("bandwidth limit must be positive or None")
        limits = self._limits_for(process_name, volume)
        limits.bandwidth_limit = bytes_per_s
        self._refill(limits)
        self._drain(process_name, volume, limits)

    def set_iops_limit(
        self, process_name: str, volume: str, iops: Optional[float]
    ) -> None:
        """Cap a process's request rate on ``volume`` (``None`` removes the cap)."""
        if iops is not None and iops <= 0:
            raise ResourceError("IOPS limit must be positive or None")
        limits = self._limits_for(process_name, volume)
        limits.iops_limit = iops
        self._refill(limits)
        self._drain(process_name, volume, limits)

    def get_limits(self, process_name: str, volume: str) -> Tuple[Optional[float], Optional[float]]:
        limits = self._limits.get((process_name, volume))
        if limits is None:
            return (None, None)
        return (limits.bandwidth_limit, limits.iops_limit)

    # ------------------------------------------------------------ submission
    def submit(
        self,
        process: OsProcess,
        volume_name: str,
        op: str,
        size_bytes: int,
        callback: Optional[Callable[[IoRequest], None]] = None,
    ) -> None:
        """Submit an I/O request on behalf of ``process``.

        ``callback`` fires when the request completes at the device.
        """
        limits = self._limits.get((process.name, volume_name))
        if limits is None or limits.unlimited:
            self._issue(process, volume_name, op, size_bytes, callback)
            return
        self._refill(limits)
        entry = (process, volume_name, op, size_bytes, callback)
        limits.pending.append(entry)
        self._drain(process.name, volume_name, limits)

    # ------------------------------------------------------------- internals
    def _refill(self, limits: IoLimits) -> None:
        now = self._engine.now
        elapsed = now - limits.last_refill
        limits.last_refill = now
        if elapsed <= 0:
            return
        # Debt-based buckets: issuing a request may push the balance negative
        # (by up to one request), and the next request waits until the balance
        # recovers.  The positive balance is capped at a short burst window so
        # idle time does not accumulate unbounded credit.  This paces average
        # throughput correctly even for requests larger than the burst cap.
        if limits.bandwidth_limit is not None:
            cap = limits.bandwidth_limit * self.BURST_WINDOW
            limits.byte_tokens = min(cap, limits.byte_tokens + elapsed * limits.bandwidth_limit)
        if limits.iops_limit is not None:
            cap = max(1.0, limits.iops_limit * self.BURST_WINDOW)
            limits.iops_tokens = min(cap, limits.iops_tokens + elapsed * limits.iops_limit)

    def _can_issue(self, limits: IoLimits, size_bytes: int) -> bool:
        if limits.bandwidth_limit is not None and limits.byte_tokens < 0.0:
            return False
        if limits.iops_limit is not None and limits.iops_tokens < 0.0:
            return False
        return True

    def _time_until_ready(self, limits: IoLimits, size_bytes: int) -> float:
        wait = 0.0
        if limits.bandwidth_limit is not None and limits.byte_tokens < 0.0:
            wait = max(wait, -limits.byte_tokens / limits.bandwidth_limit)
        if limits.iops_limit is not None and limits.iops_tokens < 0.0:
            wait = max(wait, -limits.iops_tokens / limits.iops_limit)
        return max(wait, micros(1))

    def _drain(self, process_name: str, volume_name: str, limits: IoLimits) -> None:
        self._refill(limits)
        while limits.pending:
            process, volume, op, size_bytes, callback = limits.pending[0]
            if not self._can_issue(limits, size_bytes):
                if not limits.drain_scheduled:
                    limits.drain_scheduled = True
                    self.throttle_delays += 1
                    delay = self._time_until_ready(limits, size_bytes)
                    self._engine.schedule(
                        delay,
                        self._drain_later,
                        process_name,
                        volume_name,
                        priority=EventPriority.KERNEL,
                    )
                return
            limits.pending.popleft()
            if limits.bandwidth_limit is not None:
                limits.byte_tokens -= float(size_bytes)
            if limits.iops_limit is not None:
                limits.iops_tokens -= 1.0
            self._issue(process, volume, op, size_bytes, callback)

    def _drain_later(self, process_name: str, volume_name: str) -> None:
        limits = self._limits.get((process_name, volume_name))
        if limits is None:
            return
        limits.drain_scheduled = False
        self._drain(process_name, volume_name, limits)

    def _issue(
        self,
        process: OsProcess,
        volume_name: str,
        op: str,
        size_bytes: int,
        callback: Optional[Callable[[IoRequest], None]],
    ) -> None:
        self._machine.volume(volume_name).submit(
            process.name,
            process.category,
            op,
            size_bytes,
            lambda request: self._complete(process, request, callback),
        )

    def _complete(
        self,
        process: OsProcess,
        request: IoRequest,
        callback: Optional[Callable[[IoRequest], None]],
    ) -> None:
        key = (process.name, request.volume)
        self.completions_by_key[key] = self.completions_by_key.get(key, 0) + 1
        self.bytes_by_key[key] = self.bytes_by_key.get(key, 0) + request.size_bytes
        self._accounting.charge_os(IO_REQUEST_OS_OVERHEAD)
        if callback is not None:
            callback(request)

    # -------------------------------------------------------------- queries
    def completions(self, process_name: str, volume: str) -> int:
        """Cumulative completed requests for a (process, volume) pair."""
        return self.completions_by_key.get((process_name, volume), 0)

    def completed_bytes(self, process_name: str, volume: str) -> int:
        return self.bytes_by_key.get((process_name, volume), 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IoStack(completed={sum(self.completions_by_key.values())}, "
            f"throttle_delays={self.throttle_delays})"
        )
