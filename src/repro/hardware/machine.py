"""The machine: topology, memory and storage volumes in one container.

A :class:`Machine` is pure hardware — it has no notion of threads or
scheduling.  The simulated operating system (:mod:`repro.hostos`) is built on
top of a machine and is what tenants and PerfIso interact with.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..config.schema import MachineSpec
from ..errors import ResourceError
from ..simulation.engine import SimulationEngine
from .disk import StripedVolume, jitter_source
from .memory import MemorySubsystem
from .topology import CpuTopology

__all__ = ["Machine"]


class Machine:
    """One server of the production fleet (Section 5.2 hardware)."""

    def __init__(
        self,
        engine: SimulationEngine,
        spec: MachineSpec,
        name: str = "machine-0",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._engine = engine
        self._spec = spec
        self._name = name
        self.topology = CpuTopology.from_spec(spec)
        self.memory = MemorySubsystem(spec.memory_bytes)
        # One batched jitter source spans both volumes so service-time draws
        # keep the exact machine-wide ordering of per-request draws.
        jitter = None if rng is None else jitter_source(rng)
        self.volumes: Dict[str, StripedVolume] = {
            spec.ssd_volume.name: StripedVolume(engine, spec.ssd_volume, rng, jitter=jitter),
            spec.hdd_volume.name: StripedVolume(engine, spec.hdd_volume, rng, jitter=jitter),
        }

    @property
    def engine(self) -> SimulationEngine:
        return self._engine

    @property
    def spec(self) -> MachineSpec:
        return self._spec

    @property
    def name(self) -> str:
        return self._name

    @property
    def logical_cores(self) -> int:
        return self.topology.logical_core_count

    def volume(self, name: str) -> StripedVolume:
        """Look up a volume by name ('ssd' or 'hdd' with default specs)."""
        try:
            return self.volumes[name]
        except KeyError:
            raise ResourceError(
                f"machine {self._name!r} has no volume {name!r}; "
                f"available: {sorted(self.volumes)}"
            ) from None

    @property
    def ssd(self) -> StripedVolume:
        return self.volume(self._spec.ssd_volume.name)

    @property
    def hdd(self) -> StripedVolume:
        return self.volume(self._spec.hdd_volume.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self._name!r}, cores={self.logical_cores})"
