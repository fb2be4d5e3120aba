"""Cluster-wide configuration files, as Autopilot ships them (Section 4.2).

The real PerfIso is deployed as an Autopilot-managed service, and Autopilot
ships cluster-wide configuration files to every machine.  This module keeps
only that configuration store: the fleet's staged rollout publishes and
rolls back PerfIso specs through it.  A crashed controller is recovered
by the fault injector (:mod:`repro.faults.injector`), not here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ClusterError, UnknownVersionError

__all__ = ["ConfigStore"]


class ConfigStore:
    """Cluster-wide configuration files, keyed by file name and versioned.

    A version is the spec object that was published: specs are frozen, so
    the store keeps exactly what was shipped to machines.

    Every ``publish`` appends a new immutable version and makes it active;
    the full history is retained so a staged rollout can roll back to the
    *exact* configuration that was live before it began, rather than to
    whatever happens to be in the store at halt time.
    """

    def __init__(self) -> None:
        self._versions: Dict[str, List[object]] = {}
        self._active: Dict[str, int] = {}
        self.pushes = 0

    def publish(self, name: str, spec: object) -> int:
        """Publish a new version of a configuration file and return its number.

        Versions are numbered from 1 in publication order; the newly
        published version becomes the active one.
        """
        history = self._versions.setdefault(name, [])
        history.append(spec)
        version = len(history)
        self._active[name] = version
        self.pushes += 1
        return version

    def fetch(self, name: str) -> object:
        """Return the *active* version of a configuration file."""
        return self.fetch_version(name, self.active_version(name))

    def fetch_version(self, name: str, version: int) -> object:
        history = self._require(name)
        if not 1 <= version <= len(history):
            raise UnknownVersionError(name, version, range(1, len(history) + 1))
        return history[version - 1]

    def active_version(self, name: str) -> int:
        self._require(name)
        return self._active[name]

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

    def _require(self, name: str) -> List[object]:
        if name not in self._versions:
            raise ClusterError(f"no configuration file named {name!r}")
        return self._versions[name]
