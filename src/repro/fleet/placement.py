"""Secondary placement: bin-packing batch demand onto reclaimable capacity.

The fleet does not run one secondary per machine by decree — a batch queue of
jobs is *placed* onto whatever capacity the calibration says each machine can
reclaim without violating its buffer.  The scheduler below is a classic
decreasing-size greedy packer with three machine-selection strategies:

* ``first_fit`` — machines in canonical (name) order, first one that fits;
* ``best_fit``  — the fitting machine with the least remaining capacity;
* ``worst_fit`` — the fitting machine with the most remaining capacity
  (spreads load, the friendliest to tail latency).

Determinism is by construction, not by seeding: inputs are canonically
ordered before packing (demands by decreasing size then name, machines by
name) and all ties break on the canonical order, so any permutation of the
input sequences yields the identical plan.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config.schema import PlacementSpec
from ..errors import ConfigError

__all__ = [
    "MachineCapacity",
    "PlacementDemand",
    "Assignment",
    "PlacementPlan",
    "plan_placement",
]


@dataclass(frozen=True)
class MachineCapacity:
    """One machine's reclaimable capacity estimate, in whole cores."""

    machine: str
    cores: int

    def __post_init__(self) -> None:
        if not self.machine:
            raise ConfigError("machine name must be non-empty")
        if self.cores < 0:
            raise ConfigError(f"machine {self.machine!r} capacity must be >= 0")


@dataclass(frozen=True)
class PlacementDemand:
    """One batch job waiting for placement."""

    name: str
    cores: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("placement demand name must be non-empty")
        if self.cores < 1:
            raise ConfigError(f"job {self.name!r} must demand at least one core")


@dataclass(frozen=True)
class Assignment:
    """One job pinned to one machine."""

    machine: str
    job: str
    cores: int


@dataclass(frozen=True)
class PlacementPlan:
    """The scheduler's output: assignments in placement order, plus leftovers."""

    assignments: Tuple[Assignment, ...]
    unplaced: Tuple[PlacementDemand, ...]

    @property
    def total_placed_cores(self) -> int:
        return sum(assignment.cores for assignment in self.assignments)

    @property
    def placed_jobs(self) -> int:
        return len(self.assignments)

    def placed_cores_by_machine(self) -> Dict[str, int]:
        placed: Dict[str, int] = {}
        for assignment in self.assignments:
            placed[assignment.machine] = placed.get(assignment.machine, 0) + assignment.cores
        return placed


def _require_unique(names: List[str], what: str) -> None:
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ConfigError(f"{what} must be unique, duplicated: {duplicates}")


def _by_name(names: List[str]) -> List[int]:
    """Indices of ``names`` in name order: one sort whose key is C code."""
    return sorted(range(len(names)), key=names.__getitem__)


def _canonical_demands(demands: Sequence[PlacementDemand]) -> List[PlacementDemand]:
    names = [demand.name for demand in demands]
    _require_unique(names, "placement job names")
    by_name = _by_name(names)
    # A stable sort on size keeps name order among equal sizes.
    sizes = np.array([demands[index].cores for index in by_name], dtype=np.int64)
    return [demands[by_name[rank]] for rank in np.argsort(-sizes, kind="stable").tolist()]


def _canonical_machines(machines: Sequence[MachineCapacity]) -> List[MachineCapacity]:
    names = [machine.machine for machine in machines]
    _require_unique(names, "machine names")
    return [machines[index] for index in _by_name(names)]


def _first_fit(machines: List[MachineCapacity], demands: List[PlacementDemand]) -> PlacementPlan:
    """Sequential first-fit, packed one run of equal-size demands at a time.

    Within a run of size ``s``, a machine that a job skips (remaining below
    ``s``) can never fit a later job of the same run, so job ``j`` of the run
    lands on the first machine whose cumulative slot count (``remaining //
    s``) exceeds ``j`` — exactly where the job-at-a-time scan puts it — and
    jobs past the last slot stay unplaced.  Smaller runs then back-fill the
    capacity the larger ones left.
    """
    if not demands:
        return PlacementPlan(assignments=(), unplaced=())
    names = [machine.machine for machine in machines]
    remaining = np.array([machine.cores for machine in machines], dtype=np.int64)
    sizes = np.array([demand.cores for demand in demands], dtype=np.int64)
    cuts = (np.flatnonzero(np.diff(sizes)) + 1).tolist()
    assignments: List[Assignment] = []
    unplaced: List[PlacementDemand] = []
    for start, stop in zip([0, *cuts], [*cuts, len(demands)]):
        size = int(sizes[start])
        slots = remaining // size
        filled = np.cumsum(slots)
        placed = min(stop - start, int(filled[-1])) if filled.size else 0
        hosts = np.searchsorted(filled, np.arange(placed), side="right")
        remaining -= size * np.bincount(hosts, minlength=remaining.size)
        jobs = demands[start : start + placed]
        assignments.extend(
            map(
                Assignment,
                map(names.__getitem__, hosts.tolist()),
                [job.name for job in jobs],
                [job.cores for job in jobs],
            )
        )
        unplaced.extend(demands[start + placed : stop])
    return PlacementPlan(assignments=tuple(assignments), unplaced=tuple(unplaced))


def _scan_fit(
    machines: List[MachineCapacity], demands: List[PlacementDemand], strategy: str
) -> PlacementPlan:
    """Best- or worst-fit: each demand scans every machine for the fitting
    one with the least (best) or most (worst) remaining capacity."""
    active: List[List[object]] = [[m.machine, m.cores] for m in machines]
    assignments: List[Assignment] = []
    unplaced: List[PlacementDemand] = []
    for demand in demands:
        chosen = None
        best_remaining = None
        for position, (name, remaining) in enumerate(active):
            if remaining < demand.cores:
                continue
            better = (
                best_remaining is None
                or (strategy == "best_fit" and remaining < best_remaining)
                or (strategy == "worst_fit" and remaining > best_remaining)
            )
            if better:
                best_remaining = remaining
                chosen = position
        if chosen is None:
            unplaced.append(demand)
            continue
        slot = active[chosen]
        assignments.append(Assignment(machine=slot[0], job=demand.name, cores=demand.cores))
        slot[1] -= demand.cores
    return PlacementPlan(assignments=tuple(assignments), unplaced=tuple(unplaced))


def plan_placement(
    machines: Sequence[MachineCapacity],
    demands: Sequence[PlacementDemand],
    strategy: str = "first_fit",
) -> PlacementPlan:
    """Pack ``demands`` onto ``machines`` without exceeding any capacity.

    Returns the same plan for any permutation of either input sequence.  A
    job that fits nowhere is reported in ``unplaced`` (the fleet's batch
    queue simply keeps it pending) — placement never overcommits a machine.
    """
    if strategy not in PlacementSpec.VALID_STRATEGIES:
        raise ConfigError(
            f"placement strategy must be one of {PlacementSpec.VALID_STRATEGIES}, "
            f"got {strategy!r}"
        )
    # Packing allocates a record per job and keeps every one reachable in the
    # plan, so cyclic-GC passes while it runs are pure overhead (as in the
    # simulation engine's run loop): suspend collection until it returns.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        ordered_demands = _canonical_demands(demands)
        ordered_machines = _canonical_machines(machines)
        if strategy == "first_fit":
            return _first_fit(ordered_machines, ordered_demands)
        return _scan_fit(ordered_machines, ordered_demands, strategy)
    finally:
        if gc_was_enabled:
            gc.enable()
