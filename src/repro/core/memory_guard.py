"""Memory guard: keep the primary's working set safe (Section 3.2).

The primary is engineered for a fixed working set that must always be
resident; when free memory drops below a reserve the secondary's processes
are killed (largest consumer first) until the reserve is restored.  Killing
is acceptable for best-effort batch work — the cluster scheduler simply
re-runs the task elsewhere.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..config.schema import MemoryGuardSpec
from ..hostos.jobobject import JobObject
from ..hostos.process import OsProcess
from ..hostos.syscalls import Kernel
from ..simulation.events import EventPriority

__all__ = ["MemoryGuard"]


class MemoryGuard:
    """Periodically checks free memory and kills secondary processes if needed."""

    def __init__(
        self,
        kernel: Kernel,
        spec: MemoryGuardSpec,
        job: JobObject,
        on_kill: Optional[Callable[[OsProcess], None]] = None,
    ) -> None:
        self._kernel = kernel
        self._spec = spec
        self._job = job
        self._on_kill = on_kill
        self._running = False
        #: A scheduled-but-unfired _check exists; guards against a stop() ->
        #: start() cycle stacking a second check chain on the old one.
        self._chain_pending = False
        # statistics
        self.checks = 0
        self.kills: List[str] = []

    def start(self) -> None:
        if self._running or not self._spec.enabled:
            return
        self._running = True
        self._schedule_check()

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------- internals
    def _schedule_check(self) -> None:
        if self._chain_pending:
            return
        self._chain_pending = True
        self._kernel.engine.schedule(
            self._spec.check_interval, self._check, priority=EventPriority.CONTROLLER
        )

    def _check(self) -> None:
        self._chain_pending = False
        if not self._running:
            return
        self.checks += 1
        self._enforce()
        self._schedule_check()

    def _enforce(self) -> None:
        # Kill until the reserve is free again.
        while self._kernel.free_memory_bytes() < self._spec.reserved_bytes:
            victim = self._pick_victim()
            if victim is None:
                return
            self.kills.append(victim.name)
            self._kernel.kill_process(victim)
            if self._on_kill is not None:
                self._on_kill(victim)

    def _pick_victim(self) -> Optional[OsProcess]:
        candidates = [p for p in self._job.processes if p.alive and p.memory_bytes > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.memory_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryGuard(checks={self.checks}, kills={len(self.kills)})"
