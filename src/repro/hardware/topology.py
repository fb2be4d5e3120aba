"""CPU topology: sockets, physical cores and hyper-threaded logical cores.

The paper's servers have two 12-core sockets with hyper-threading, giving 48
logical cores.  PerfIso operates purely on logical core ids (its idle-core
mask is a bitmask of logical processors), but the topology is still modelled
explicitly so core allocation policies can prefer to hand whole physical
cores to the secondary, and so tests can reason about sibling relationships.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config.schema import MachineSpec
from ..errors import ConfigError

__all__ = ["LogicalCoreInfo", "CpuTopology"]


@dataclass(frozen=True)
class LogicalCoreInfo:
    """Static identity of one logical core."""

    core_id: int
    socket: int
    physical_core: int
    smt_index: int


class CpuTopology:
    """Socket / physical-core / logical-core layout of one machine."""

    def __init__(self, sockets: int, cores_per_socket: int, threads_per_core: int) -> None:
        if sockets < 1 or cores_per_socket < 1 or threads_per_core < 1:
            raise ConfigError("topology dimensions must all be >= 1")
        self._sockets = sockets
        self._cores_per_socket = cores_per_socket
        self._cores: List[LogicalCoreInfo] = []
        core_id = 0
        for socket in range(sockets):
            for physical in range(cores_per_socket):
                for smt in range(threads_per_core):
                    self._cores.append(
                        LogicalCoreInfo(
                            core_id=core_id,
                            socket=socket,
                            physical_core=socket * cores_per_socket + physical,
                            smt_index=smt,
                        )
                    )
                    core_id += 1
        self._siblings: Dict[int, Tuple[int, ...]] = {}
        by_physical: Dict[int, List[int]] = {}
        for info in self._cores:
            by_physical.setdefault(info.physical_core, []).append(info.core_id)
        for ids in by_physical.values():
            group = tuple(sorted(ids))
            for cid in ids:
                self._siblings[cid] = group
        self._secondary_order: Optional[List[int]] = None

    @classmethod
    def from_spec(cls, spec: MachineSpec) -> "CpuTopology":
        return cls(spec.sockets, spec.cores_per_socket, spec.threads_per_core)

    # ------------------------------------------------------------ properties
    @property
    def sockets(self) -> int:
        return self._sockets

    @property
    def physical_core_count(self) -> int:
        return self._sockets * self._cores_per_socket

    @property
    def logical_core_count(self) -> int:
        return len(self._cores)

    @property
    def cores(self) -> Sequence[LogicalCoreInfo]:
        return tuple(self._cores)

    def core_info(self, core_id: int) -> LogicalCoreInfo:
        if not 0 <= core_id < len(self._cores):
            raise ConfigError(f"core id {core_id} out of range (0..{len(self._cores) - 1})")
        return self._cores[core_id]

    def siblings(self, core_id: int) -> Tuple[int, ...]:
        """Logical cores sharing the same physical core (including ``core_id``)."""
        self.core_info(core_id)
        return self._siblings[core_id]

    def secondary_allocation_order(self) -> List[int]:
        """Core ids in the order they should be handed to the secondary.

        The secondary gets cores from the *end* of the id space first, whole
        physical cores at a time, so the primary keeps contiguous low-numbered
        cores.  This mirrors how PerfIso carves an affinity mask out of the
        tail of the processor mask without touching the primary's preferred
        cores (Section 4.2: PerfIso never overrides the primary's own
        affinitisation).

        The order is a pure function of the (immutable) topology, so it is
        computed once and replayed — the PerfIso controller asks for it on
        every allocation change.
        """
        if self._secondary_order is None:
            by_physical: Dict[int, List[int]] = {}
            for info in self._cores:
                by_physical.setdefault(info.physical_core, []).append(info.core_id)
            order: List[int] = []
            for physical in sorted(by_physical, reverse=True):
                order.extend(sorted(by_physical[physical], reverse=True))
            self._secondary_order = order
        return list(self._secondary_order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CpuTopology(sockets={self._sockets}, physical={self.physical_core_count}, "
            f"logical={self.logical_core_count})"
        )
