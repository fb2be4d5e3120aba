"""Machine-learning training batch job (the Figure 10 secondary).

The production result of Section 6.2 colocates IndexServe with the training
phase of a machine-learning computation.  The model is a CPU-dominant job
with periodic bulk reads of training data from the shared HDD volume:
``threads`` always-runnable compute workers plus an asynchronous input
pipeline that fetches mini-batch data.  Progress is reported in mini-batches,
derived from consumed CPU time.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..config.schema import MlTrainingSpec
from ..errors import TenantError
from ..hostos.process import OsProcess, TenantCategory
from ..hostos.syscalls import Kernel
from ..hostos.thread import cpu_phase
from .base import SecondaryTenant

__all__ = ["MlTrainingTenant"]


class MlTrainingTenant(SecondaryTenant):
    """CPU-heavy training job with a bulk-read input pipeline."""

    def __init__(
        self,
        kernel: Kernel,
        spec: MlTrainingSpec,
        rng: np.random.Generator,
        name: str = "ml-training",
        volume: str = "hdd",
    ) -> None:
        super().__init__(kernel, name)
        self._spec = spec
        self._rng = rng
        self._volume = volume
        self._process: Optional[OsProcess] = None
        self.input_bytes_read = 0

    @property
    def spec(self) -> MlTrainingSpec:
        return self._spec

    @property
    def process(self) -> OsProcess:
        if self._process is None:
            raise TenantError("ML training tenant has not been started")
        return self._process

    def processes(self) -> List[OsProcess]:
        return [self._process] if self._process is not None else []

    def start(self) -> None:
        if self._started:
            raise TenantError("ML training tenant started twice")
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
        self._issue_input_read()

    # ------------------------------------------------------------- internals
    def _issue_input_read(self) -> None:
        if self._process is None or not self._process.alive:
            return
        self._kernel.iostack.submit(
            self._process,
            self._volume,
            "read",
            self._spec.minibatch_read_bytes,
            callback=lambda request: self._input_read_done(request.size_bytes),
        )

    def _input_read_done(self, size_bytes: int) -> None:
        self.input_bytes_read += size_bytes
        # The input pipeline paces itself to roughly ``reads_per_minibatch``
        # reads per completed mini-batch worth of CPU.
        target_gap = self._spec.minibatch_cpu_cost / max(self._spec.reads_per_minibatch, 1e-6)
        jitter = float(self._rng.uniform(0.5, 1.5))
        self._kernel.engine.schedule(target_gap * jitter / max(self._spec.threads, 1),
                                     self._issue_input_read)

    # -------------------------------------------------------------- progress
    def cpu_seconds(self) -> float:
        return self._process.cpu_time if self._process is not None else 0.0

    def progress(self) -> float:
        """Completed mini-batches (CPU seconds / per-mini-batch cost)."""
        return self.cpu_seconds() / self._spec.minibatch_cpu_cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MlTrainingTenant(threads={self._spec.threads}, progress={self.progress():.0f})"
