"""Egress network throttling of the secondary (Section 3.2).

The secondary's outbound traffic is marked low priority and rate capped, so
primary responses are never queued behind bulk batch transfers.  The model is
thin by design: the NIC already implements strict priority plus a low-class
token bucket; this component simply owns the configuration and applies the
low class's rate cap while isolation is active.
"""

from __future__ import annotations

from ..config.schema import NetworkThrottleSpec
from ..hostos.syscalls import Kernel

__all__ = ["NetworkThrottle"]


class NetworkThrottle:
    """Applies the secondary egress policy to a machine's NIC."""

    def __init__(self, kernel: Kernel, spec: NetworkThrottleSpec) -> None:
        self._kernel = kernel
        self._spec = spec
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        if not self._spec.enabled or self._active:
            return
        self._active = True
        self._kernel.machine.nic.set_low_priority_rate_limit(self._spec.secondary_bandwidth_limit)

    def stop(self) -> None:
        if not self._active:
            return
        self._active = False
        self._kernel.machine.nic.set_low_priority_rate_limit(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkThrottle(active={self._active})"
