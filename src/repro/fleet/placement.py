"""Secondary placement: bin-packing batch demand onto reclaimable capacity.

The fleet does not run one secondary per machine by decree — a batch queue of
jobs is *placed* onto whatever capacity the calibration says each machine can
reclaim without violating its buffer.  The inputs are plain arrays: the
machine names, each machine's reclaimable cores, and the job sizes.  Jobs
carry no names because two jobs of equal size are interchangeable: the plan
is the cores placed on each machine plus, per job size, how many jobs were
placed and how many stay pending.

The scheduler is a classic decreasing-size greedy packer with three
machine-selection strategies:

* ``first_fit`` — machines in name order, first one that fits;
* ``best_fit``  — the fitting machine with the least remaining capacity;
* ``worst_fit`` — the fitting machine with the most remaining capacity
  (spreads load, the friendliest to tail latency).

Determinism is by construction, not by seeding: jobs are packed largest
first, machines are considered in name order, and every tie breaks on that
order, so any permutation of the inputs yields the identical plan.  Name
order is string order, not index order: ``g-100000`` sorts before
``g-99999``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config.schema import PlacementSpec
from ..errors import ConfigError

__all__ = ["PlacementPlan", "plan_placement"]


@dataclass(frozen=True, eq=False)
class PlacementPlan:
    """The scheduler's output, as arrays indexed like its inputs."""

    #: Cores placed on each machine, in the order the machines were given.
    placed_cores: np.ndarray
    #: The distinct job sizes, largest first, and for each size the number
    #: of jobs placed and the number that fit no machine.
    sizes: np.ndarray
    placed: np.ndarray
    unplaced: np.ndarray

    @property
    def total_placed_cores(self) -> int:
        return int(self.placed_cores.sum())

    @property
    def placed_jobs(self) -> int:
        return int(self.placed.sum())

    @property
    def unplaced_jobs(self) -> int:
        return int(self.unplaced.sum())


def _require_unique(names: Sequence[str]) -> None:
    if len(set(names)) != len(names):
        duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
        raise ConfigError(f"machine names must be unique, duplicated: {duplicates}")


def _first_fit(remaining: np.ndarray, size: int, jobs: int) -> np.ndarray:
    """How many of ``jobs`` jobs of ``size`` cores each machine hosts under
    sequential first-fit, machines in name order.

    A machine that a job skips (remaining below ``size``) can never fit a
    later job of the same size, so job ``j`` lands on the first machine whose
    cumulative slot count (``remaining // size``) exceeds ``j`` — exactly
    where the job-at-a-time scan puts it — and jobs past the last slot stay
    unplaced.
    """
    slots = remaining // size
    filled = np.cumsum(slots)
    placed = min(jobs, int(filled[-1])) if filled.size else 0
    return np.clip(placed - (filled - slots), 0, slots)


def _scan_fit(remaining: np.ndarray, size: int, jobs: int, strategy: str) -> np.ndarray:
    """How many of ``jobs`` jobs of ``size`` cores each machine hosts under
    best- or worst-fit: each job takes the fitting machine with the least
    (best) or most (worst) remaining capacity, the earliest in name order on
    ties."""
    hosted = np.zeros(remaining.size, dtype=np.int64)
    if not remaining.size:
        return hosted
    left = remaining.copy()
    unusable = np.iinfo(np.int64).max
    for _ in range(jobs):
        if strategy == "best_fit":
            chosen = int(np.where(left >= size, left, unusable).argmin())
        else:
            chosen = int(left.argmax())
        if left[chosen] < size:
            break  # no machine fits this size, nor any later job of it
        left[chosen] -= size
        hosted[chosen] += 1
    return hosted


def plan_placement(
    names: Sequence[str],
    capacities: Sequence[int],
    sizes: Sequence[int],
    strategy: str = "first_fit",
) -> PlacementPlan:
    """Pack jobs of ``sizes`` cores onto the machines ``names`` without
    exceeding any machine's ``capacities`` entry.

    Permuting the machines (each name with its capacity) or the job sizes
    leaves the plan unchanged: the same cores on every named machine and
    the same counts per job size.  A job that fits nowhere is counted as
    unplaced (the fleet's batch queue simply keeps it pending) — placement
    never overcommits a machine.
    """
    if strategy not in PlacementSpec.VALID_STRATEGIES:
        raise ConfigError(
            f"placement strategy must be one of {PlacementSpec.VALID_STRATEGIES}, "
            f"got {strategy!r}"
        )
    names = list(names)
    capacities = np.asarray(capacities, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if capacities.shape != (len(names),):
        raise ConfigError(
            f"need one capacity per machine: {len(names)} names, "
            f"capacities of shape {capacities.shape}"
        )
    if not all(names):
        raise ConfigError("machine name must be non-empty")
    _require_unique(names)
    if capacities.size and capacities.min() < 0:
        machine = names[int(capacities.argmin())]
        raise ConfigError(f"machine {machine!r} capacity must be >= 0")
    if sizes.size and sizes.min() < 1:
        raise ConfigError("every job must demand at least one core")

    by_name = np.array(sorted(range(len(names)), key=names.__getitem__), dtype=np.intp)
    remaining = capacities[by_name]
    distinct, counts = np.unique(sizes, return_counts=True)
    distinct, counts = distinct[::-1], counts[::-1]
    placed = np.zeros(distinct.size, dtype=np.int64)
    for index, (size, jobs) in enumerate(zip(distinct.tolist(), counts.tolist())):
        if strategy == "first_fit":
            hosted = _first_fit(remaining, size, jobs)
        else:
            hosted = _scan_fit(remaining, size, jobs, strategy)
        remaining = remaining - size * hosted
        placed[index] = hosted.sum()
    placed_cores = np.empty_like(capacities)
    placed_cores[by_name] = capacities[by_name] - remaining
    return PlacementPlan(
        placed_cores=placed_cores, sizes=distinct, placed=placed, unplaced=counts - placed
    )
