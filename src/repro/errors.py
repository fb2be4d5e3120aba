"""Exception hierarchy for the PerfIso reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish configuration problems from simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class SchedulerError(SimulationError):
    """The simulated OS scheduler detected an invariant violation."""


class ResourceError(SimulationError):
    """A simulated hardware resource was used incorrectly (e.g. double free)."""


class TenantError(ReproError):
    """A tenant (primary or secondary workload) was misconfigured or misused."""


class IsolationError(ReproError):
    """The PerfIso controller or one of its policies was misused."""


class ClusterError(ReproError):
    """A cluster-level component (routing, aggregation, deployment) failed."""


class UnknownVersionError(ClusterError):
    """A configuration version was requested that the store has never held.

    Carries the configuration ``name``, the requested ``version`` and the
    ``available`` versions so recovery code (staged rollouts rolling back
    through churn) can decide whether the miss is fatal or survivable.
    """

    def __init__(self, name: str, version: object, available: tuple) -> None:
        self.name = name
        self.version = version
        self.available = tuple(available)
        listing = ", ".join(str(v) for v in self.available) if self.available else "none"
        super().__init__(
            f"configuration {name!r} has no version {version}; "
            f"available versions: {listing}"
        )


class ConfigPushError(ClusterError):
    """A configuration push failed transiently (lost ack, partitioned store).

    Raised by fault-injecting config stores; staged rollouts treat it as
    retryable, unlike other :class:`ClusterError`\\ s which indicate a
    genuinely misconfigured deployment.
    """


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class ReportingError(ReproError):
    """A run-artifact bundle is malformed, corrupted or version-skewed."""


class TelemetryError(ReproError):
    """A telemetry stream or record is malformed, or a closed stream was written."""

