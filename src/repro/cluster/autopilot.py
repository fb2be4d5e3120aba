"""A minimal Autopilot-like service management substrate (Section 4.2).

The real PerfIso is deployed as an Autopilot-managed service: Autopilot ships
cluster-wide configuration files to every machine, starts and stops services,
restarts them after crashes, and gives operators a kill switch.  The model
below provides just enough of that surface to exercise PerfIso's operational
behaviour — configuration distribution, crash recovery from persisted state,
and cluster-wide enable/disable — without pretending to be a full cluster
manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..config.loader import dump_json, load_json
from ..config.schema import PerfIsoSpec
from ..errors import ClusterError, UnknownVersionError

__all__ = ["ManagedService", "ConfigStore", "Autopilot"]


@dataclass
class ManagedService:
    """One service instance registered with Autopilot on one machine."""

    name: str
    machine: str
    start: Callable[[], None]
    stop: Callable[[], None]
    #: Optional state persistence hooks (used by PerfIso for crash recovery).
    save_state: Optional[Callable[[], Dict[str, object]]] = None
    restore_state: Optional[Callable[[Dict[str, object]], None]] = None
    running: bool = False
    restarts: int = 0
    persisted_state: Dict[str, object] = field(default_factory=dict)


class ConfigStore:
    """Cluster-wide configuration files, keyed by file name and versioned.

    Configurations are stored as JSON text (exactly what would be shipped to
    machines), so the store also validates that every spec round-trips through
    the serialisation layer.

    Every ``publish`` appends a new immutable version and makes it active;
    the full history is retained so a staged rollout can roll back to the
    *exact* configuration that was live before it began, rather than to
    whatever happens to be in the store at halt time.
    """

    def __init__(self) -> None:
        self._versions: Dict[str, List[str]] = {}
        self._active: Dict[str, int] = {}
        self.pushes = 0

    def publish(self, name: str, spec: object) -> int:
        """Publish a new version of a configuration file and return its number.

        Versions are numbered from 1 in publication order; the newly
        published version becomes the active one.
        """
        history = self._versions.setdefault(name, [])
        history.append(dump_json(spec))
        version = len(history)
        self._active[name] = version
        self.pushes += 1
        return version

    def fetch(self, name: str, cls: type) -> object:
        """Return the *active* version of a configuration file."""
        return self.fetch_version(name, self.active_version(name), cls)

    def fetch_version(self, name: str, version: int, cls: type) -> object:
        history = self._require(name)
        if not 1 <= version <= len(history):
            raise UnknownVersionError(name, version, range(1, len(history) + 1))
        return load_json(cls, history[version - 1])

    def fetch_perfiso(self, name: str = "perfiso.json") -> PerfIsoSpec:
        return self.fetch(name, PerfIsoSpec)

    def active_version(self, name: str) -> int:
        self._require(name)
        return self._active[name]

    def version_count(self, name: str) -> int:
        return len(self._require(name))

    def rollback(self, name: str, version: Optional[int] = None) -> int:
        """Make an older version active again (default: the previous one).

        Rolling back is itself a configuration push (machines re-fetch), so it
        counts towards ``pushes``; the history is never rewritten.
        """
        history = self._require(name)
        target = self._active[name] - 1 if version is None else version
        if not 1 <= target <= len(history):
            raise UnknownVersionError(name, target, range(1, len(history) + 1))
        self._active[name] = target
        self.pushes += 1
        return target

    def files(self) -> List[str]:
        return sorted(self._versions)

    def _require(self, name: str) -> List[str]:
        if name not in self._versions:
            raise ClusterError(f"no configuration file named {name!r}")
        return self._versions[name]


class Autopilot:
    """Service lifecycle + configuration distribution for a fleet of machines."""

    def __init__(self) -> None:
        self.config = ConfigStore()
        self._services: Dict[str, ManagedService] = {}

    # ------------------------------------------------------------- services
    def register(self, service: ManagedService) -> None:
        key = self._key(service.machine, service.name)
        if key in self._services:
            raise ClusterError(f"service {service.name!r} already registered on {service.machine!r}")
        self._services[key] = service

    def service(self, machine: str, name: str) -> ManagedService:
        key = self._key(machine, name)
        try:
            return self._services[key]
        except KeyError:
            raise ClusterError(f"no service {name!r} on machine {machine!r}") from None

    def services_named(self, name: str) -> List[ManagedService]:
        return [s for s in self._services.values() if s.name == name]

    def start(self, machine: str, name: str) -> None:
        service = self.service(machine, name)
        if service.running:
            return
        service.start()
        service.running = True

    def stop(self, machine: str, name: str) -> None:
        service = self.service(machine, name)
        if not service.running:
            return
        service.stop()
        service.running = False

    def start_all(self, name: str) -> None:
        for service in self.services_named(name):
            self.start(service.machine, service.name)

    # --------------------------------------------------------- crash recovery
    def checkpoint(self, machine: str, name: str) -> None:
        """Persist a service's state (PerfIso stores its parameters on disk)."""
        service = self.service(machine, name)
        if service.save_state is not None:
            service.persisted_state = dict(service.save_state())

    def crash_and_recover(self, machine: str, name: str) -> None:
        """Simulate a service crash followed by an Autopilot restart.

        The service is stopped, restarted, and handed back the last state it
        checkpointed — PerfIso resumes isolation without operator action.
        """
        service = self.service(machine, name)
        if service.running:
            service.stop()
            service.running = False
        service.restarts += 1
        service.start()
        service.running = True
        if service.restore_state is not None and service.persisted_state:
            service.restore_state(dict(service.persisted_state))

    @staticmethod
    def _key(machine: str, name: str) -> str:
        return f"{machine}/{name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Autopilot(services={len(self._services)}, configs={len(self.config.files())})"
