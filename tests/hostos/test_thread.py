"""Tests for the thread model."""

import math

import pytest

from repro.errors import SchedulerError
from repro.hostos.process import OsProcess, TenantCategory
from repro.hostos.thread import ANY_CORE, SimThread, ThreadState, cpu_phase, io_phase


def make_process(category=TenantCategory.PRIMARY):
    return OsProcess(pid=1, name="svc", category=category, created_at=0.0)


def make_thread(program, process=None, affinity=None):
    return SimThread(
        tid=1,
        name="t",
        process=process or make_process(),
        program=program,
        created_at=0.0,
        affinity=affinity,
    )


class TestPhases:
    def test_cpu_phase_validation(self):
        assert cpu_phase(0.001) == ("cpu", 0.001)
        with pytest.raises(SchedulerError):
            cpu_phase(-1.0)

    def test_io_phase_validation(self):
        assert io_phase("ssd", "read", 4096) == ("io", "ssd", "read", 4096)
        with pytest.raises(SchedulerError):
            io_phase("ssd", "peek", 4096)
        with pytest.raises(SchedulerError):
            io_phase("ssd", "read", 0)


class TestSimThread:
    def test_empty_program_rejected(self):
        with pytest.raises(SchedulerError):
            make_thread([])

    def test_initial_state(self):
        thread = make_thread([cpu_phase(0.001)])
        assert thread.state == ThreadState.NEW
        assert thread.is_cpu_phase
        assert thread.remaining_in_phase == pytest.approx(0.001)

    def test_infinite_phase(self):
        thread = make_thread([cpu_phase(math.inf)])
        assert thread.is_cpu_phase
        assert math.isinf(thread.remaining_in_phase)

    def test_advance_phase(self, engine, kernel):
        # The scheduler advances the program: the first CPU phase, then
        # blocked on the read, then the last CPU phase at its full length.
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        thread = kernel.spawn_thread(
            process, [cpu_phase(0.001), io_phase("ssd", "read", 1024), cpu_phase(0.002)]
        )
        engine.run(until=0.001)
        assert thread.state == ThreadState.BLOCKED
        assert thread.current_phase[0] == "io"
        # The 1 KiB read takes about 0.1 ms; by 1.5 ms it has completed and
        # the thread is dispatched for its 2 ms phase, which is not yet charged.
        engine.run(until=0.0015)
        assert thread.state == ThreadState.RUNNING
        assert thread.phase_index == 2
        assert thread.remaining_in_phase == pytest.approx(0.002)
        engine.run()
        assert thread.terminated

    def test_category_comes_from_process(self):
        thread = make_thread([cpu_phase(1)], process=make_process(TenantCategory.SECONDARY))
        assert thread.category == TenantCategory.SECONDARY


class TestAffinity:
    def test_no_affinity_runs_anywhere(self):
        thread = make_thread([cpu_phase(1)])
        assert thread.effective_mask() == ANY_CORE
        assert thread.can_run_on(0)
        assert thread.can_run_on(47)

    def test_thread_affinity_respected(self):
        thread = make_thread([cpu_phase(1)], affinity=frozenset({1, 2}))
        assert thread.can_run_on(1)
        assert not thread.can_run_on(0)

    def test_job_affinity_intersects_thread_affinity(self):
        from repro.hostos.jobobject import JobObject

        process = make_process(TenantCategory.SECONDARY)
        job = JobObject("secondary")
        job.assign(process)
        job.set_cpu_affinity(frozenset({2, 3}))
        thread = make_thread([cpu_phase(1)], process=process, affinity=frozenset({1, 2}))
        assert thread.effective_mask() == 0b100

    def test_job_affinity_alone(self):
        from repro.hostos.jobobject import JobObject

        process = make_process(TenantCategory.SECONDARY)
        job = JobObject("secondary")
        job.assign(process)
        job.set_cpu_affinity(frozenset({0}))
        thread = make_thread([cpu_phase(1)], process=process)
        assert thread.effective_mask() == 0b1
