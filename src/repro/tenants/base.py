"""Common tenant interface.

A *tenant* is anything that consumes machine resources: the latency-sensitive
primary service, and the best-effort secondary batch jobs.  Tenants expose a
uniform ``start`` plus a progress indicator so the experiment harness can
compare how much useful work the secondary completed under different
isolation policies (Figure 8c).  Nothing stops a tenant: a run ends when its
engine does, and the memory guard kills secondary processes instead.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from ..hostos.jobobject import JobObject
from ..hostos.process import OsProcess
from ..hostos.syscalls import Kernel

__all__ = ["Tenant", "SecondaryTenant"]


class Tenant(abc.ABC):
    """Base class for all tenants."""

    def __init__(self, kernel: Kernel, name: str) -> None:
        self._kernel = kernel
        self._name = name
        self._started = False

    @property
    def kernel(self) -> Kernel:
        return self._kernel

    @property
    def name(self) -> str:
        return self._name

    @abc.abstractmethod
    def start(self) -> None:
        """Create processes/threads and begin doing work."""

    @abc.abstractmethod
    def processes(self) -> List[OsProcess]:
        """Processes owned by this tenant (used by PerfIso to build job objects)."""


class SecondaryTenant(Tenant):
    """A best-effort tenant that can be placed under a PerfIso job object."""

    def __init__(self, kernel: Kernel, name: str) -> None:
        super().__init__(kernel, name)
        self._job: Optional[JobObject] = None

    @property
    def job(self) -> Optional[JobObject]:
        return self._job

    def attach_to_job(self, job: JobObject) -> None:
        """Place every process of this tenant under ``job``."""
        self._job = job
        for process in self.processes():
            job.assign(process)

    @abc.abstractmethod
    def progress(self) -> float:
        """Application-level progress (arbitrary units, monotone increasing)."""
