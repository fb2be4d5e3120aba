"""The CPU bully: a configurable always-runnable compute-bound secondary.

Identical in spirit to the paper's micro-benchmark (Section 5.3): each worker
thread spins on pure integer arithmetic with essentially no memory or storage
traffic, so it will consume every CPU cycle the OS gives it.  Progress is
measured in "iterations", where one iteration corresponds to a fixed amount of
CPU time, which makes the progress comparisons of Figure 8c straightforward.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..config.schema import CpuBullySpec
from ..errors import TenantError
from ..hostos.process import OsProcess, TenantCategory
from ..hostos.syscalls import Kernel
from ..hostos.thread import cpu_phase
from .base import SecondaryTenant

__all__ = ["CpuBullyTenant"]


class CpuBullyTenant(SecondaryTenant):
    """A multi-threaded CPU hog used to stress isolation mechanisms."""

    def __init__(
        self,
        kernel: Kernel,
        spec: CpuBullySpec,
        name: str = "cpu-bully",
    ) -> None:
        super().__init__(kernel, name)
        self._spec = spec
        self._process: Optional[OsProcess] = None

    @property
    def spec(self) -> CpuBullySpec:
        return self._spec

    @property
    def process(self) -> OsProcess:
        if self._process is None:
            raise TenantError("CPU bully has not been started")
        return self._process

    def processes(self) -> List[OsProcess]:
        return [self._process] if self._process is not None else []

    def start(self) -> None:
        if self._started:
            raise TenantError("CPU bully started twice")
        self._started = True
        self._process = self._kernel.create_process(
            self._name,
            category=TenantCategory.SECONDARY,
            memory_bytes=self._spec.memory_bytes,
        )
        if self._job is not None:
            self._job.assign(self._process)
        for index in range(self._spec.threads):
            self._kernel.spawn_thread(
                self._process,
                [cpu_phase(math.inf)],
                name=f"{self._name}-w{index}",
            )

    # -------------------------------------------------------------- progress
    def cpu_seconds(self) -> float:
        """Total CPU time the bully has consumed so far."""
        return self._process.cpu_time if self._process is not None else 0.0

    def progress(self) -> float:
        """Completed iterations (CPU seconds / per-iteration cost)."""
        return self.cpu_seconds() / self._spec.iteration_cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuBullyTenant(threads={self._spec.threads}, progress={self.progress():.0f})"
