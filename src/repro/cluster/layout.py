"""Cluster layout: which machine holds which index partition (Figure 3).

The index is split into ``partitions`` columns and replicated across ``rows``
rows; every (partition, row) pair lives on one IndexServe machine.  A separate
pool of machines runs the top-level aggregators (TLAs).  Mid-level aggregators
(MLAs) run *on* the IndexServe machines; the TLA picks one machine of the
chosen row to act as MLA for each request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config.schema import ClusterSpec
from ..errors import ClusterError

__all__ = ["IndexMachineInfo", "ClusterLayout"]


@dataclass(frozen=True)
class IndexMachineInfo:
    """Identity of one IndexServe machine in the cluster."""

    name: str
    partition: int
    row: int


class ClusterLayout:
    """Maps the abstract cluster spec onto named machines."""

    def __init__(self, spec: ClusterSpec) -> None:
        self._spec = spec
        self._index_machines: List[IndexMachineInfo] = []
        for row in range(spec.rows):
            for partition in range(spec.partitions):
                self._index_machines.append(
                    IndexMachineInfo(
                        name=f"index-r{row}-p{partition}",
                        partition=partition,
                        row=row,
                    )
                )
        self._tla_machines = [f"tla-{i}" for i in range(spec.tla_machines)]

    @property
    def spec(self) -> ClusterSpec:
        return self._spec

    @property
    def index_machines(self) -> List[IndexMachineInfo]:
        return list(self._index_machines)

    @property
    def tla_machines(self) -> List[str]:
        return list(self._tla_machines)

    def machines_in_row(self, row: int) -> List[IndexMachineInfo]:
        if not 0 <= row < self._spec.rows:
            raise ClusterError(f"row {row} out of range (0..{self._spec.rows - 1})")
        return [m for m in self._index_machines if m.row == row]

    @property
    def total_machines(self) -> int:
        return len(self._index_machines) + len(self._tla_machines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterLayout(partitions={self._spec.partitions}, rows={self._spec.rows}, "
            f"tlas={len(self._tla_machines)})"
        )
