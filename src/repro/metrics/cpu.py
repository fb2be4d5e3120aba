"""CPU utilisation breakdown reports.

The paper's CPU figures stack four components: Primary, Secondary, OS and
Idle.  :class:`CpuUtilizationSampler` snapshots the kernel's cumulative
accounting when the warm-up ends and differences it at the end of the run to
build the whole-run breakdown (Figures 4b-8b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..hostos.accounting import CpuSnapshot
from ..hostos.process import TenantCategory
from ..hostos.syscalls import Kernel
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority

__all__ = ["CpuBreakdown", "CpuUtilizationSampler"]


@dataclass(frozen=True)
class CpuBreakdown:
    """Fractions of total core-time per category over some interval."""

    primary: float
    secondary: float
    os: float
    idle: float

    @property
    def busy(self) -> float:
        return self.primary + self.secondary + self.os

    @staticmethod
    def from_utilization(utilization: Dict[str, float]) -> "CpuBreakdown":
        return CpuBreakdown(
            primary=utilization.get(TenantCategory.PRIMARY, 0.0),
            secondary=utilization.get(TenantCategory.SECONDARY, 0.0),
            os=utilization.get(TenantCategory.SYSTEM, 0.0),
            idle=utilization.get("idle", 0.0),
        )


class CpuUtilizationSampler:
    """The CPU breakdown of a kernel's measurement window."""

    def __init__(
        self,
        engine: SimulationEngine,
        kernel: Kernel,
        warmup_end: float = 0.0,
    ) -> None:
        self._engine = engine
        self._kernel = kernel
        self._warmup_end = warmup_end
        self._measure_start_snapshot: Optional[CpuSnapshot] = None
        self._started = False

    def start(self) -> None:
        """Mark the start of the measurement window (idempotent)."""
        if self._started:
            return
        self._started = True
        if self._warmup_end <= self._engine.now:
            self._measure_start_snapshot = self._kernel.cpu_snapshot()
        else:
            self._engine.schedule_at(
                self._warmup_end, self._mark_measure_start, priority=EventPriority.MEASUREMENT
            )

    def _mark_measure_start(self) -> None:
        self._measure_start_snapshot = self._kernel.cpu_snapshot()

    def overall(self) -> CpuBreakdown:
        """Breakdown over the whole measurement window (post-warm-up)."""
        since = self._measure_start_snapshot
        utilization = self._kernel.accounting.utilization(self._engine.now, since)
        return CpuBreakdown.from_utilization(utilization)
