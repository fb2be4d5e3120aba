"""Tests for the memory guard."""

import pytest

from repro.config.schema import MemoryGuardSpec
from repro.core.memory_guard import MemoryGuard
from repro.hostos.process import TenantCategory
from repro.units import GIB


@pytest.fixture
def job(kernel):
    return kernel.create_job_object("secondary")


def make_guard(kernel, job, reserved=2 * GIB, interval=0.1, on_kill=None):
    return MemoryGuard(kernel, MemoryGuardSpec(reserved_bytes=reserved, check_interval=interval),
                       job, on_kill=on_kill)


class TestMemoryGuard:
    def test_no_kill_when_memory_plentiful(self, engine, kernel, job):
        process = kernel.create_process("batch", TenantCategory.SECONDARY, memory_bytes=1 * GIB)
        job.assign(process)
        guard = make_guard(kernel, job)
        guard.start()
        engine.run(until=0.5)
        assert guard.kills == []
        assert process.alive

    def test_kills_secondary_under_pressure(self, engine, kernel, job):
        # The machine has 128 GiB; the primary takes 120 and the secondary 7,
        # leaving less than the 2 GiB reserve.
        kernel.create_process("svc", TenantCategory.PRIMARY, memory_bytes=120 * GIB)
        batch = kernel.create_process("batch", TenantCategory.SECONDARY, memory_bytes=7 * GIB)
        job.assign(batch)
        killed = []
        guard = make_guard(kernel, job, on_kill=lambda p: killed.append(p.name))
        guard.start()
        engine.run(until=0.5)
        assert killed == ["batch"]
        assert not batch.alive
        assert kernel.free_memory_bytes() >= 2 * GIB

    def test_kills_largest_consumer_first(self, engine, kernel, job):
        kernel.create_process("svc", TenantCategory.PRIMARY, memory_bytes=118 * GIB)
        small = kernel.create_process("small", TenantCategory.SECONDARY, memory_bytes=2 * GIB)
        large = kernel.create_process("large", TenantCategory.SECONDARY, memory_bytes=7 * GIB)
        job.assign(small)
        job.assign(large)
        guard = make_guard(kernel, job)
        guard.start()
        engine.run(until=0.5)
        assert not large.alive
        assert small.alive

    def test_disabled_guard_never_checks(self, engine, kernel, job):
        guard = MemoryGuard(kernel, MemoryGuardSpec(enabled=False), job)
        guard.start()
        engine.run(until=0.5)
        assert guard.checks == 0

    def test_stop_halts_checks(self, engine, kernel, job):
        guard = make_guard(kernel, job)
        guard.start()
        engine.run(until=0.25)
        guard.stop()
        checks = guard.checks
        engine.run(until=1.0)
        assert guard.checks == checks
