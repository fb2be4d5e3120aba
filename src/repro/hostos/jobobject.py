"""Job objects: the OS-provided control knobs PerfIso manipulates.

The paper places every secondary-tenant process in a unified Windows Job
Object and controls it exclusively through that object (Section 4): a CPU
affinity mask, a CPU rate (duty-cycle) cap, and a memory limit.  Linux cgroups
expose equivalent knobs.  PerfIso never touches the primary's processes.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional

from ..errors import SchedulerError
from .process import OsProcess
from .thread import ANY_CORE, core_mask, mask_cores

__all__ = ["JobObject"]


class JobObject:
    """A named group of processes sharing resource limits."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.processes: List[OsProcess] = []
        #: The affinity as a core bitmask (``ANY_CORE`` = unrestricted), read
        #: by the scheduler on every placement; change it through
        #: :meth:`set_cpu_affinity` so the scheduler is notified.
        self.affinity_mask = ANY_CORE
        #: The CPU rate cap as a fraction of machine CPU time (``None`` =
        #: unrestricted), read by the scheduler on every dispatch; change it
        #: through :meth:`set_cpu_rate` so the scheduler is notified.
        self.cpu_rate_fraction: Optional[float] = None
        # Rate-control runtime state, managed by the scheduler.
        self.rate_budget = 0.0
        self.throttled = False
        #: Observers notified when the affinity or rate limit changes so the
        #: scheduler can react immediately (preempt newly-disallowed cores).
        self._listeners: List[Callable[["JobObject"], None]] = []

    # ------------------------------------------------------------ membership
    def assign(self, process: OsProcess) -> None:
        """Place ``process`` under this job object's limits."""
        if process.job is not None and process.job is not self:
            raise SchedulerError(
                f"process {process.name!r} already belongs to job {process.job.name!r}"
            )
        if process not in self.processes:
            self.processes.append(process)
        process.job = self

    def remove(self, process: OsProcess) -> None:
        if process in self.processes:
            self.processes.remove(process)
        if process.job is self:
            process.job = None

    def live_threads(self):
        """All non-terminated threads of member processes."""
        threads = []
        for process in self.processes:
            threads.extend(process.live_threads())
        return threads

    # ----------------------------------------------------------------- knobs
    @property
    def cpu_affinity(self) -> Optional[FrozenSet[int]]:
        """The allowed cores (``None`` = unrestricted), derived from the mask."""
        mask = self.affinity_mask
        return None if mask == ANY_CORE else mask_cores(mask)

    def set_cpu_affinity(self, cores: Optional[FrozenSet[int]]) -> None:
        """Restrict member threads to ``cores`` (``None`` removes the limit).

        An empty set is allowed and means "no core at all": the scheduler will
        park every member thread, which is how blind isolation squeezes the
        secondary out entirely when the primary needs the whole machine.
        """
        mask = ANY_CORE if cores is None else core_mask(cores)
        if mask == self.affinity_mask:
            return
        self.affinity_mask = mask
        self._notify()

    def set_cpu_rate(self, fraction: Optional[float]) -> None:
        """Cap the job to ``fraction`` of total machine CPU time per interval."""
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise SchedulerError(f"cpu rate fraction must be in (0, 1], got {fraction}")
        if fraction == self.cpu_rate_fraction:
            return
        self.cpu_rate_fraction = fraction
        if fraction is None:
            self.throttled = False
        self._notify()

    # ------------------------------------------------------------- listeners
    def add_listener(self, callback: Callable[["JobObject"], None]) -> None:
        self._listeners.append(callback)

    def _notify(self) -> None:
        for callback in self._listeners:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mask = self.affinity_mask
        affinity = "all" if mask == ANY_CORE else mask.bit_count()
        return (
            f"JobObject({self.name!r}, processes={len(self.processes)}, "
            f"affinity={affinity}, rate={self.cpu_rate_fraction})"
        )
