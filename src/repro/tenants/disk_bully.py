"""The disk bully: a DiskSPD-like I/O-bound secondary tenant.

Reproduces the cluster experiment's disk stressor (Section 5.3): a mixed
33 % read / 67 % write, sequential, synchronous workload against the shared
HDD volume.  Each worker keeps exactly one request outstanding (synchronous
I/O), issuing the next request as soon as the previous one completes, plus a
tiny CPU cost per request.  Progress is measured in bytes transferred.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config.schema import DiskBullySpec
from ..errors import TenantError
from ..hostos.process import OsProcess, TenantCategory
from ..hostos.syscalls import Kernel
from .base import SecondaryTenant

__all__ = ["DiskBullyTenant"]


class DiskBullyTenant(SecondaryTenant):
    """Saturates the HDD volume with synchronous sequential I/O."""

    def __init__(
        self,
        kernel: Kernel,
        spec: DiskBullySpec,
        rng: np.random.Generator,
        name: str = "disk-bully",
        volume: str = "hdd",
    ) -> None:
        super().__init__(kernel, name)
        self._spec = spec
        self._rng = rng
        self._volume = volume
        self._process: Optional[OsProcess] = None
        # statistics
        self.requests_completed = 0
        self.bytes_completed = 0

    @property
    def spec(self) -> DiskBullySpec:
        return self._spec

    @property
    def process(self) -> OsProcess:
        if self._process is None:
            raise TenantError("disk bully has not been started")
        return self._process

    def processes(self) -> List[OsProcess]:
        return [self._process] if self._process is not None else []

    def start(self) -> None:
        if self._started:
            raise TenantError("disk bully started twice")
        self._started = True
        self._process = self._kernel.create_process(
            self._name,
            category=TenantCategory.SECONDARY,
            memory_bytes=self._spec.memory_bytes,
        )
        if self._job is not None:
            self._job.assign(self._process)
        for worker in range(self._spec.threads * self._spec.queue_depth):
            self._issue(worker)

    # ------------------------------------------------------------- internals
    def _issue(self, worker: int) -> None:
        if self._process is None or not self._process.alive:
            return
        op = "read" if self._rng.random() < self._spec.read_fraction else "write"
        # The per-request CPU cost is tiny; charge it directly rather than
        # paying for a scheduler round-trip per 8 KiB request.
        self._kernel.accounting.charge(TenantCategory.SECONDARY, self._spec.cpu_per_request)
        self._process.charge_cpu(self._spec.cpu_per_request)
        self._kernel.iostack.submit(
            self._process,
            self._volume,
            op,
            self._spec.request_bytes,
            callback=lambda request, w=worker: self._completed(w, request.size_bytes),
        )

    def _completed(self, worker: int, size_bytes: int) -> None:
        self.requests_completed += 1
        self.bytes_completed += size_bytes
        self._issue(worker)

    # -------------------------------------------------------------- progress
    def progress(self) -> float:
        """Progress in bytes transferred."""
        return float(self.bytes_completed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskBullyTenant(requests={self.requests_completed}, "
            f"bytes={self.bytes_completed})"
        )
