"""Egress network throttling of the secondary (Section 3.2).

The secondary's outbound traffic is marked low priority and rate capped, so
primary responses are never queued behind bulk batch transfers.  The model is
thin by design: the NIC already implements strict priority plus a low-class
token bucket; this component simply owns the configuration and exposes the
"which priority should this tenant's packets use" decision.
"""

from __future__ import annotations

from ..config.schema import NetworkThrottleSpec
from ..hostos.process import TenantCategory
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

    @property
    def spec(self) -> NetworkThrottleSpec:
        return self._spec

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

    def priority_for(self, category: str) -> str:
        """NIC priority class a tenant of ``category`` should use for egress."""
        nic = self._kernel.machine.nic
        if not self._active or not self._spec.low_priority:
            return nic.HIGH
        return nic.LOW if category == TenantCategory.SECONDARY else nic.HIGH

    def update_spec(self, spec: NetworkThrottleSpec) -> None:
        """Reconfigure in place from a cluster-wide configuration push.

        An active throttle re-applies the new bandwidth cap immediately; a
        push that disables the throttle deactivates it and lifts the cap.
        """
        self._spec = spec
        if not spec.enabled:
            self.stop()
        elif self._active:
            self._kernel.machine.nic.set_low_priority_rate_limit(spec.secondary_bandwidth_limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkThrottle(active={self._active})"
