"""Tests for the kernel facade."""

import math

import pytest

from repro.errors import SchedulerError
from repro.hostos.process import TenantCategory
from repro.hostos.thread import cpu_phase
from repro.units import GIB, millis


class TestProcesses:
    def test_create_process_allocates_memory(self, kernel):
        process = kernel.create_process("svc", TenantCategory.PRIMARY, memory_bytes=1 * GIB)
        assert process.memory_bytes == 1 * GIB
        assert kernel.machine.memory.usage_of("svc") == 1 * GIB

    def test_kill_process_releases_memory_and_threads(self, engine, kernel):
        process = kernel.create_process("batch", TenantCategory.SECONDARY, memory_bytes=1 * GIB)
        thread = kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=millis(5))
        kernel.kill_process(process)
        assert thread.terminated
        assert kernel.machine.memory.usage_of("batch") == 0
        assert not process.alive

    def test_spawn_thread_in_dead_process_rejected(self, kernel):
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        kernel.kill_process(process)
        with pytest.raises(SchedulerError):
            kernel.spawn_thread(process, [cpu_phase(1)])

class TestJobObjects:
    def test_duplicate_name_rejected(self, kernel):
        kernel.create_job_object("secondary")
        with pytest.raises(SchedulerError):
            kernel.create_job_object("secondary")

    def test_job_changes_reach_scheduler(self, engine, kernel):
        job = kernel.create_job_object("secondary")
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=millis(2))
        job.set_cpu_affinity(frozenset({0}))
        assert kernel.scheduler.cores_used_by_category(TenantCategory.SECONDARY) == 1


class TestSyscalls:
    def test_cpu_utilization_reports_idle_machine(self, engine, kernel):
        engine.run(until=1.0)
        utilization = kernel.accounting.utilization(kernel.now)
        assert utilization["idle"] == pytest.approx(1.0)

    def test_cpu_snapshot_differencing(self, engine, kernel):
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        snapshot = kernel.cpu_snapshot()
        kernel.spawn_thread(process, [cpu_phase(millis(8))])
        engine.run(until=1.0)
        utilization = kernel.accounting.utilization(kernel.now, snapshot)
        assert utilization[TenantCategory.PRIMARY] > 0

    def test_async_io_submission(self, engine, kernel):
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        done = []
        kernel.submit_io(process, "hdd", "write", 4096, callback=lambda r: done.append(r))
        engine.run()
        assert len(done) == 1
