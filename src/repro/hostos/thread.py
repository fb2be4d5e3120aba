"""Simulated kernel threads.

A thread executes a *program*: an ordered list of phases, each of which is
either a CPU burst (``("cpu", seconds)``, possibly ``math.inf`` for
always-runnable batch threads) or a blocking I/O operation
(``("io", volume, op, size_bytes)``).  The scheduler advances the program;
tenants only build programs and react to completion callbacks.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchedulerError

__all__ = [
    "ANY_CORE",
    "ThreadState",
    "core_mask",
    "mask_cores",
    "cpu_phase",
    "io_phase",
    "SimThread",
]

Phase = Tuple

#: The unrestricted affinity mask: every bit set, so ``mask & ANY_CORE`` is
#: ``mask`` and effective affinity is always one ``&``.
ANY_CORE = -1


def core_mask(cores: Iterable[int]) -> int:
    """The affinity bitmask of ``cores`` (bit ``i`` set => core ``i`` allowed)."""
    mask = 0
    for core in cores:
        core = int(core)
        if core < 0:
            raise SchedulerError(f"core ids must be non-negative, got {core}")
        mask |= 1 << core
    return mask


def mask_cores(mask: int) -> FrozenSet[int]:
    """The core ids whose bits are set in a non-negative ``mask``."""
    cores = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(cores)


class ThreadState:
    """Lifecycle states of a :class:`SimThread`."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    TERMINATED = "terminated"

    ALL = (NEW, READY, RUNNING, BLOCKED, TERMINATED)


def cpu_phase(duration: float) -> Phase:
    """Build a CPU phase of ``duration`` seconds (``math.inf`` = run forever)."""
    if duration < 0:
        raise SchedulerError(f"cpu phase duration must be >= 0, got {duration}")
    return ("cpu", float(duration))


def io_phase(volume: str, op: str, size_bytes: int) -> Phase:
    """Build a blocking I/O phase against ``volume``."""
    if op not in ("read", "write"):
        raise SchedulerError(f"io phase op must be 'read' or 'write', got {op!r}")
    if size_bytes <= 0:
        raise SchedulerError("io phase size must be positive")
    return ("io", volume, op, int(size_bytes))


class SimThread:
    """One schedulable kernel thread."""

    __slots__ = (
        "tid",
        "name",
        "process",
        "program",
        "phase_index",
        "remaining_in_phase",
        "state",
        "affinity_mask",
        "core_id",
        "on_complete",
        "total_cpu_time",
        "created_at",
        "dispatched_at",
        "slice_event",
        "slice_length",
        "slice_rate",
        "slice_reserved",
        "queued_core",
        "queued_job",
    )

    def __init__(
        self,
        tid: int,
        name: str,
        process,
        program: Sequence[Phase],
        created_at: float,
        affinity: Optional[FrozenSet[int]] = None,
        on_complete: Optional[Callable[["SimThread"], None]] = None,
    ) -> None:
        if not program:
            raise SchedulerError(f"thread {name!r} needs at least one phase")
        self.tid = tid
        self.name = name
        self.process = process
        # Fresh lists are adopted as-is (the per-worker hot path builds one
        # per thread); any other sequence is copied so callers keep ownership.
        self.program: List[Phase] = program if type(program) is list else list(program)
        self.phase_index = 0
        first = self.program[0]
        self.remaining_in_phase = float(first[1]) if first[0] == "cpu" else 0.0
        self.state = ThreadState.NEW
        self.affinity_mask = ANY_CORE if affinity is None else core_mask(affinity)
        self.core_id: Optional[int] = None
        self.on_complete = on_complete
        self.total_cpu_time = 0.0
        self.created_at = created_at
        self.dispatched_at: Optional[float] = None
        self.slice_event = None
        self.slice_length = 0.0
        self.slice_rate = 1.0
        self.slice_reserved = False
        self.queued_core: Optional[int] = None
        # The job object the thread belonged to when it was enqueued; the
        # scheduler's ready-thread accounting is keyed on it (valid only
        # while the thread sits in a ready queue).
        self.queued_job = None

    # ------------------------------------------------------------ properties
    @property
    def category(self) -> str:
        """Tenant category inherited from the owning process."""
        return self.process.category

    @property
    def current_phase(self) -> Phase:
        return self.program[self.phase_index]

    @property
    def is_cpu_phase(self) -> bool:
        return self.current_phase[0] == "cpu"

    @property
    def terminated(self) -> bool:
        return self.state == ThreadState.TERMINATED

    def effective_mask(self) -> int:
        """Bitmask of the thread's own affinity and its job object's."""
        job = self.process.job
        return self.affinity_mask if job is None else self.affinity_mask & job.affinity_mask

    def can_run_on(self, core_id: int) -> bool:
        return bool(self.effective_mask() >> core_id & 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.name!r}, tid={self.tid}, state={self.state})"
