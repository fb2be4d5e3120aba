"""HDFS DataNode + client colocated with the primary (Section 5.3).

Every IndexServe machine in the cluster experiment also runs an HDFS DataNode
(for replication) and a YARN/HDFS client used by batch jobs.  Their
interference footprint is disk bandwidth on the shared HDD volume plus a few
percent of CPU, and the paper statically caps them at 20 MB/s (replication)
and 60 MB/s (client).  This tenant generates that traffic and registers the
static caps with the kernel I/O stack — the same mechanism the PerfIso DWRR
throttler drives dynamically.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config.schema import HdfsSpec
from ..errors import TenantError
from ..hostos.process import OsProcess, TenantCategory
from ..hostos.syscalls import Kernel
from ..hostos.thread import cpu_phase
from .base import SecondaryTenant

__all__ = ["HdfsTenant"]


class HdfsTenant(SecondaryTenant):
    """DataNode replication stream plus client read/write stream."""

    def __init__(
        self,
        kernel: Kernel,
        spec: HdfsSpec,
        rng: np.random.Generator,
        name: str = "hdfs",
        volume: str = "hdd",
    ) -> None:
        super().__init__(kernel, name)
        self._spec = spec
        self._rng = rng
        self._volume = volume
        self._datanode: Optional[OsProcess] = None
        self._client: Optional[OsProcess] = None
        # statistics
        self.replication_bytes = 0
        self.client_bytes = 0

    @property
    def spec(self) -> HdfsSpec:
        return self._spec

    def processes(self) -> List[OsProcess]:
        return [p for p in (self._datanode, self._client) if p is not None]

    def start(self) -> None:
        if self._started:
            raise TenantError("HDFS tenant started twice")
        self._started = True
        self._datanode = self._kernel.create_process(
            f"{self._name}-datanode",
            category=TenantCategory.SECONDARY,
            memory_bytes=self._spec.memory_bytes // 2,
        )
        self._client = self._kernel.create_process(
            f"{self._name}-client",
            category=TenantCategory.SECONDARY,
            memory_bytes=self._spec.memory_bytes // 2,
        )
        if self._job is not None:
            self._job.assign(self._datanode)
            self._job.assign(self._client)
        # Static bandwidth caps from the cluster configuration (Section 5.3).
        self._kernel.iostack.set_bandwidth_limit(
            self._datanode.name, self._volume, self._spec.replication_bandwidth_limit
        )
        self._kernel.iostack.set_bandwidth_limit(
            self._client.name, self._volume, self._spec.client_bandwidth_limit
        )
        # A small amount of always-on CPU (heartbeat, checksumming, JVM).
        cpu_threads = max(1, round(self._spec.cpu_fraction * self._kernel.logical_cores))
        for index in range(cpu_threads):
            self._kernel.spawn_thread(
                self._client,
                [cpu_phase(float("inf"))],
                name=f"{self._name}-cpu{index}",
            )
        # Kick off both unbuffered I/O streams; the token buckets pace them.
        self._issue_replication()
        self._issue_client()

    # ------------------------------------------------------------- internals
    def _issue_replication(self) -> None:
        if self._datanode is None or not self._datanode.alive:
            return
        self._kernel.iostack.submit(
            self._datanode,
            self._volume,
            "write",
            self._spec.request_bytes,
            callback=lambda request: self._replication_done(request.size_bytes),
        )

    def _replication_done(self, size_bytes: int) -> None:
        self.replication_bytes += size_bytes
        self._issue_replication()

    def _issue_client(self) -> None:
        if self._client is None or not self._client.alive:
            return
        op = "read" if self._rng.random() < 0.5 else "write"
        self._kernel.iostack.submit(
            self._client,
            self._volume,
            op,
            self._spec.request_bytes,
            callback=lambda request: self._client_done(request.size_bytes),
        )

    def _client_done(self, size_bytes: int) -> None:
        self.client_bytes += size_bytes
        self._issue_client()

    # -------------------------------------------------------------- progress
    def progress(self) -> float:
        """Progress in total bytes moved by both streams."""
        return float(self.replication_bytes + self.client_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HdfsTenant(replication={self.replication_bytes}B, client={self.client_bytes}B)"
        )
