"""CPU time accounting per tenant category.

The paper's figures break machine CPU time into Primary / Secondary / OS /
Idle.  The scheduler charges every executed CPU slice here; idle time is
whatever remains of ``cores x wall-clock``.  Utilisation can be queried both
cumulatively and over an interval (by differencing snapshots), which is how
the CPU sampler measures the post-warm-up window.  Per-process CPU time is
:attr:`~repro.hostos.process.OsProcess.cpu_time`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SchedulerError
from .process import TenantCategory

__all__ = ["CpuSnapshot", "CpuAccounting"]


@dataclass(frozen=True)
class CpuSnapshot:
    """Cumulative CPU seconds consumed per category at a point in time."""

    time: float
    busy_by_category: Dict[str, float]


class CpuAccounting:
    """Accumulates CPU busy time for one machine."""

    def __init__(self, logical_cores: int, start_time: float = 0.0) -> None:
        if logical_cores < 1:
            raise SchedulerError("accounting needs at least one core")
        self._cores = logical_cores
        self._start_time = start_time
        self._busy: Dict[str, float] = {
            TenantCategory.PRIMARY: 0.0,
            TenantCategory.SECONDARY: 0.0,
            TenantCategory.SYSTEM: 0.0,
        }

    @property
    def logical_cores(self) -> int:
        return self._cores

    # --------------------------------------------------------------- charging
    def charge(self, category: str, seconds: float) -> None:
        """Charge ``seconds`` of core time to ``category``."""
        if seconds < 0:
            raise SchedulerError(f"cannot charge negative CPU time ({seconds})")
        if category not in self._busy:
            self._busy[category] = 0.0
        self._busy[category] += seconds

    def charge_os(self, seconds: float) -> None:
        """Charge kernel overhead (context switches, interrupts, syscalls)."""
        if seconds < 0:
            raise SchedulerError(f"cannot charge negative CPU time ({seconds})")
        # Direct accumulate — the SYSTEM bucket is pre-seeded and this runs
        # for every context switch and I/O completion.
        self._busy[TenantCategory.SYSTEM] += seconds

    # ---------------------------------------------------------------- queries
    def busy_seconds(self, category: str) -> float:
        return self._busy.get(category, 0.0)

    def snapshot(self, now: float) -> CpuSnapshot:
        return CpuSnapshot(time=now, busy_by_category=dict(self._busy))

    def utilization(self, now: float, since: CpuSnapshot = None) -> Dict[str, float]:
        """Per-category utilisation fractions (of total core-time) since
        ``since`` (or since the start of accounting)."""
        if since is None:
            base_time = self._start_time
            base_busy: Dict[str, float] = {}
        else:
            base_time = since.time
            base_busy = since.busy_by_category
        elapsed = now - base_time
        if elapsed <= 0:
            return {category: 0.0 for category in self._busy} | {"idle": 1.0}
        capacity = elapsed * self._cores
        result: Dict[str, float] = {}
        busy_total = 0.0
        for category, value in self._busy.items():
            delta = value - base_busy.get(category, 0.0)
            fraction = max(0.0, delta) / capacity
            result[category] = fraction
            busy_total += fraction
        result["idle"] = max(0.0, 1.0 - busy_total)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuAccounting(cores={self._cores}, busy={self._busy})"
