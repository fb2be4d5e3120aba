"""Tests for the PerfIso controller service."""

import math
import warnings

import pytest

from repro.config.schema import (
    BlindIsolationSpec,
    CpuBullySpec,
    CpuCycleSpec,
    PerfIsoSpec,
    StaticCoreSpec,
)
from repro.core.controller import PerfIsoController
from repro.errors import IsolationError
from repro.hostos.process import TenantCategory
from repro.hostos.thread import cpu_phase
from repro.tenants.cpu_bully import CpuBullyTenant
from repro.units import millis


def blind_spec(buffer_cores=2, poll_interval=millis(1)):
    return PerfIsoSpec(
        cpu=BlindIsolationSpec(buffer_cores=buffer_cores),
        poll_interval=poll_interval,
    )


class TestLifecycle:
    def test_initial_allocation_applied_on_start(self, kernel):
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        controller.start()
        assert controller.secondary_core_count == kernel.logical_cores - 2
        assert controller.secondary_affinity is not None

    def test_double_start_rejected(self, kernel):
        controller = PerfIsoController(kernel, blind_spec())
        controller.start()
        with pytest.raises(IsolationError):
            controller.start()

    def test_manage_attaches_tenant_to_job(self, kernel):
        controller = PerfIsoController(kernel, blind_spec())
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=2, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        assert bully.process.job is controller.job


class TestBlindIsolationLoop:
    def test_buffer_maintained_under_load(self, engine, kernel):
        """With a saturating secondary, roughly `buffer` cores stay idle."""
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=16, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        engine.run(until=0.2)
        assert kernel.idle_core_count() == pytest.approx(2, abs=1)
        assert controller.polls > 50
        assert controller.secondary_core_count <= kernel.logical_cores - 2

    def test_secondary_shrinks_when_primary_arrives(self, engine, kernel):
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=16, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        engine.run(until=0.05)
        allocation_before = controller.secondary_core_count
        primary = kernel.create_process("svc", TenantCategory.PRIMARY)
        for _ in range(4):
            kernel.spawn_thread(primary, [cpu_phase(math.inf)])
        engine.run(until=0.15)
        assert controller.secondary_core_count < allocation_before

    def test_secondary_grows_back_when_primary_leaves(self, engine, kernel):
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=16, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        primary = kernel.create_process("svc", TenantCategory.PRIMARY)
        threads = [kernel.spawn_thread(primary, [cpu_phase(math.inf)]) for _ in range(4)]
        engine.run(until=0.1)
        squeezed = controller.secondary_core_count
        for thread in threads:
            kernel.terminate_thread(thread)
        engine.run(until=0.2)
        assert controller.secondary_core_count > squeezed

    def test_poll_update_split(self, engine, kernel):
        """Polling happens every interval; updates only when the target moves."""
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=16, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        engine.run(until=0.3)
        assert controller.polls > controller.updates_applied


class TestOtherPolicies:
    def test_static_cores_applied(self, engine, kernel):
        spec = PerfIsoSpec(cpu=StaticCoreSpec(secondary_cores=2))
        controller = PerfIsoController(kernel, spec)
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=8, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        horizon = kernel.scheduler.spec.quantum * 2
        engine.run(until=horizon)
        assert controller.secondary_core_count == 2
        assert bully.cpu_seconds() == pytest.approx(horizon * 2, rel=0.1)

    def test_cpu_cycles_applied(self, engine, kernel):
        spec = PerfIsoSpec(cpu=CpuCycleSpec(cpu_fraction=0.25))
        controller = PerfIsoController(kernel, spec)
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=8, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        engine.run(until=0.4)
        share = bully.cpu_seconds() / (0.4 * kernel.logical_cores)
        assert share == pytest.approx(0.25, rel=0.35)
        assert controller.job.cpu_rate_fraction == 0.25

    def test_none_policy_leaves_secondary_unrestricted(self, engine, kernel):
        spec = PerfIsoSpec(cpu=None)
        controller = PerfIsoController(kernel, spec)
        controller.start()
        assert controller.job.cpu_affinity is None
        assert controller.job.cpu_rate_fraction is None


class TestKillSwitchAndRecovery:
    def test_kill_switch_lifts_restrictions(self, engine, kernel):
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=16, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        engine.run(until=0.1)
        controller.disable()
        assert controller.job.cpu_affinity is None
        assert not controller.enabled
        engine.run(until=0.3)
        # The bully now gets the whole machine.
        assert kernel.idle_core_count() == 0

    def test_reenable_restores_isolation(self, engine, kernel):
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=16, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        controller.disable()
        engine.run(until=0.1)
        controller.enable()
        engine.run(until=0.3)
        assert kernel.idle_core_count() >= 2

    def test_state_round_trip(self, engine, kernel):
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        controller.start()
        engine.run(until=0.05)
        state = controller.state_dict()
        assert state["cpu_policy"] == "blind"
        fresh_kernel_job = controller.job.cpu_affinity
        controller.restore_state(state)
        assert controller.job.cpu_affinity == fresh_kernel_job

    @staticmethod
    def _fresh_kernel():
        """A brand-new machine + kernel, as after a controller crash/restart."""
        import numpy as np

        from repro.config.schema import MachineSpec, SchedulerSpec
        from repro.hardware.machine import Machine
        from repro.hostos.syscalls import Kernel
        from repro.simulation.engine import SimulationEngine

        fresh_engine = SimulationEngine()
        fresh_machine = Machine(
            fresh_engine,
            MachineSpec(sockets=1, cores_per_socket=4, threads_per_core=2),
            name="recovered",
            rng=np.random.default_rng(0),
        )
        return Kernel(fresh_engine, fresh_machine, SchedulerSpec())

    def test_restore_state_restores_update_counter(self, engine, kernel):
        """The serialised updates_applied counter survives crash recovery."""
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        bully = CpuBullyTenant(kernel, CpuBullySpec(threads=16, memory_bytes=1024))
        bully.start()
        controller.manage(bully)
        controller.start()
        engine.run(until=0.1)
        state = controller.state_dict()
        saved_updates = state["updates_applied"]
        assert saved_updates >= 1

        recovered = PerfIsoController(self._fresh_kernel(), blind_spec(buffer_cores=2))
        assert recovered.updates_applied == 0
        recovered.restore_state(state)
        # The counter carries over, plus exactly one re-application of the
        # recovered core allocation.
        assert recovered.updates_applied == saved_updates + 1
        assert recovered.secondary_core_count == state["current_core_count"]

    def test_restore_state_counter_without_reapply(self, engine, kernel):
        """A disabled snapshot restores the counter without a new update."""
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        controller.start()
        engine.run(until=0.05)
        controller.disable()
        state = controller.state_dict()
        recovered = PerfIsoController(self._fresh_kernel(), blind_spec())
        # Restoring a disabled snapshot must not apply any allocation.
        recovered.restore_state(state)
        assert recovered.updates_applied == state["updates_applied"]
        assert not recovered.enabled

class TestRestoreUnrestrictedSnapshot:
    """Regression: an enabled snapshot with no core count means 'unrestricted'.

    The old restore path did nothing in that case, leaving the replacement
    controller's own initial restriction in place — recovery silently
    changed the machine's isolation state.
    """

    def test_unrestricted_snapshot_lifts_replacement_restriction(self, engine, kernel):
        original = PerfIsoController(kernel, PerfIsoSpec(cpu=None))
        original.start()
        engine.run(until=0.05)
        state = original.state_dict()
        assert state["enabled"] and state["current_core_count"] is None

        recovered = PerfIsoController(
            TestKillSwitchAndRecovery._fresh_kernel(), blind_spec(buffer_cores=2)
        )
        recovered.start()  # applies blind's initial restriction
        assert recovered.secondary_affinity is not None
        saved = recovered.updates_applied
        with pytest.warns(RuntimeWarning, match="cpu_policy"):
            recovered.restore_state(state)
        assert recovered.secondary_affinity is None
        assert recovered.secondary_core_count is None
        assert recovered.job.cpu_rate_fraction is None
        # The restore counted from the snapshot counter, plus the one lift.
        assert recovered.updates_applied == state["updates_applied"] + 1
        assert saved >= 1  # the initial restriction genuinely happened

    def test_cpu_rate_snapshot_restores_the_rate(self, engine, kernel):
        spec = PerfIsoSpec(cpu=CpuCycleSpec(cpu_fraction=0.25))
        original = PerfIsoController(kernel, spec)
        original.start()
        state = original.state_dict()
        assert state["cpu_rate"] == 0.25

        recovered = PerfIsoController(TestKillSwitchAndRecovery._fresh_kernel(), spec)
        recovered.restore_state(state)
        assert recovered.job.cpu_rate_fraction == 0.25
        assert recovered.secondary_affinity is None

    def test_matching_policy_restore_does_not_warn(self, engine, kernel):
        controller = PerfIsoController(kernel, blind_spec(buffer_cores=2))
        controller.start()
        engine.run(until=0.05)
        state = controller.state_dict()
        recovered = PerfIsoController(
            TestKillSwitchAndRecovery._fresh_kernel(), blind_spec(buffer_cores=2)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recovered.restore_state(state)
        assert recovered.secondary_core_count == state["current_core_count"]

    def test_autopilot_recovery_applies_unrestricted_snapshot(self, engine, kernel):
        """The checkpoint, crash and restart cycle ends with the snapshot honoured.

        Driven the way the fault injector drives it: ``state_dict()`` is the
        checkpoint, ``stop()`` the crash, and the restarted instance runs
        ``start()`` then ``restore_state()``.
        """
        original = PerfIsoController(kernel, PerfIsoSpec(cpu=None))
        original.start()
        engine.run(until=0.05)
        checkpoint = dict(original.state_dict())
        original.stop()

        # The replacement instance is configured blind, so its start() pins
        # the secondary — recovery must lift that again.
        replacement = PerfIsoController(
            TestKillSwitchAndRecovery._fresh_kernel(), blind_spec(buffer_cores=2)
        )
        replacement.start()
        assert replacement.secondary_affinity is not None
        with pytest.warns(RuntimeWarning, match="cpu_policy"):
            replacement.restore_state(dict(checkpoint))
        assert replacement.secondary_affinity is None
        assert replacement.secondary_core_count is None
