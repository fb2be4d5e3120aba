"""Simulated OS processes.

A process groups threads, owns memory, accumulates CPU time (the kernel's I/O
stack counts its I/O per volume) and may be placed in a :class:`~repro.hostos.jobobject.JobObject` so PerfIso can
restrict it (affinity, CPU rate, memory) without knowing anything about the
code it runs — exactly the interface the paper relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .jobobject import JobObject
    from .thread import SimThread

__all__ = ["TenantCategory", "OsProcess"]


class TenantCategory:
    """Well-known tenant categories used for CPU accounting."""

    PRIMARY = "primary"
    SECONDARY = "secondary"
    SYSTEM = "os"

    ALL = (PRIMARY, SECONDARY, SYSTEM)


class OsProcess:
    """One OS process (a primary service, a batch job, or a system daemon)."""

    def __init__(self, pid: int, name: str, category: str, created_at: float) -> None:
        if category not in TenantCategory.ALL:
            raise SchedulerError(
                f"process category must be one of {TenantCategory.ALL}, got {category!r}"
            )
        self.pid = pid
        self.name = name
        self.category = category
        self.created_at = created_at
        self.job: Optional["JobObject"] = None
        #: Live threads only, keyed by tid in spawn order: the scheduler enters
        #: a thread when it is added and drops it the moment it terminates, so
        #: a finished thread is freed by reference counting instead of staying
        #: reachable from its process.
        self.threads: Dict[int, "SimThread"] = {}
        self.alive = True
        # resource usage
        self.memory_bytes = 0
        self.cpu_time = 0.0

    # -------------------------------------------------------------- threads
    def live_threads(self) -> List["SimThread"]:
        """The live threads in spawn order (a copy, safe to terminate from)."""
        return list(self.threads.values())

    # ------------------------------------------------------------ accounting
    def charge_cpu(self, seconds: float) -> None:
        self.cpu_time += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OsProcess({self.name!r}, pid={self.pid}, category={self.category}, "
            f"threads={len(self.threads)}, alive={self.alive})"
        )
