"""The kernel facade: the "system call" surface tenants and PerfIso use.

PerfIso is a user-mode service; everything it does goes through ordinary OS
interfaces (Section 4): reading the idle-core bitmask, configuring job
objects, reading per-device I/O statistics, and process lifecycle management.
:class:`Kernel` bundles the scheduler, I/O stack, memory accounting and those
interfaces for one machine.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from ..config.schema import SchedulerSpec
from ..errors import SchedulerError
from ..hardware.machine import Machine
from ..simulation.engine import SimulationEngine
from .accounting import CpuAccounting, CpuSnapshot
from .iostack import IoStack
from .jobobject import JobObject
from .process import OsProcess, TenantCategory
from .scheduler import Scheduler
from .thread import Phase, SimThread

__all__ = ["Kernel"]


class Kernel:
    """The simulated operating system of one machine."""

    def __init__(
        self,
        engine: SimulationEngine,
        machine: Machine,
        scheduler_spec: Optional[SchedulerSpec] = None,
    ) -> None:
        self._engine = engine
        self._machine = machine
        spec = scheduler_spec if scheduler_spec is not None else SchedulerSpec()
        self.accounting = CpuAccounting(machine.logical_cores, start_time=engine.now)
        self.iostack = IoStack(engine, machine, self.accounting)
        self.scheduler = Scheduler(engine, machine.topology, spec, self.accounting, self.iostack)
        self._processes: Dict[int, OsProcess] = {}
        self._jobs: Dict[str, JobObject] = {}
        self._next_pid = 1000
        self._next_tid = 1

    # ------------------------------------------------------------ properties
    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def machine(self) -> Machine:
        return self._machine

    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def logical_cores(self) -> int:
        return self._machine.logical_cores

    # -------------------------------------------------------------- processes
    def create_process(
        self,
        name: str,
        category: str = TenantCategory.SECONDARY,
        memory_bytes: int = 0,
    ) -> OsProcess:
        """Create a process and (optionally) reserve its memory footprint."""
        process = OsProcess(self._next_pid, name, category, self._engine.now)
        self._next_pid += 1
        self._processes[process.pid] = process
        if memory_bytes:
            self._machine.memory.allocate(name, memory_bytes)
            process.memory_bytes = memory_bytes
        return process

    def kill_process(self, process: OsProcess) -> None:
        """Terminate every thread of ``process`` and release its memory."""
        self.scheduler.terminate_process(process)
        freed = self._machine.memory.release_all(process.name)
        process.memory_bytes = max(0, process.memory_bytes - freed)
        if process.job is not None:
            process.job.remove(process)

    def processes(self) -> List[OsProcess]:
        return list(self._processes.values())

    # ------------------------------------------------------------ job objects
    def create_job_object(self, name: str) -> JobObject:
        if name in self._jobs:
            raise SchedulerError(f"job object {name!r} already exists")
        job = JobObject(name)
        job.add_listener(self.scheduler.on_job_changed)
        self._jobs[name] = job
        return job

    # --------------------------------------------------------------- threads
    def spawn_thread(
        self,
        process: OsProcess,
        program: Sequence[Phase],
        name: Optional[str] = None,
        affinity: Optional[FrozenSet[int]] = None,
        on_complete: Optional[Callable[[SimThread], None]] = None,
    ) -> SimThread:
        """Create a thread in ``process`` and make it runnable immediately."""
        if not process.alive:
            raise SchedulerError(f"cannot spawn a thread in dead process {process.name!r}")
        tid = self._next_tid
        self._next_tid = tid + 1
        thread = SimThread(
            tid,
            name or f"{process.name}-t{tid}",
            process,
            program,
            self._engine._now,
            affinity,
            on_complete,
        )
        self.scheduler.add_thread(thread)
        return thread

    def terminate_thread(self, thread: SimThread) -> None:
        self.scheduler.terminate_thread(thread)

    # ----------------------------------------------------------------- memory
    def free_memory_bytes(self) -> int:
        return self._machine.memory.free_bytes

    # --------------------------------------------------------------- syscalls
    def idle_core_count(self) -> int:
        return self.scheduler.idle_core_count()

    def cpu_snapshot(self) -> CpuSnapshot:
        return self.accounting.snapshot(self._engine.now)

    def submit_io(
        self,
        process: OsProcess,
        volume: str,
        op: str,
        size_bytes: int,
        callback=None,
    ) -> None:
        """Asynchronous I/O submission (no thread is blocked)."""
        self.iostack.submit(process, volume, op, size_bytes, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self._machine.name!r}, processes={len(self._processes)})"
