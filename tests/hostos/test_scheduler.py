"""Tests for the multicore scheduler — the core substrate of the reproduction."""

import math

import pytest

from repro.config.schema import MachineSpec, SchedulerSpec
from repro.hardware.machine import Machine
from repro.hostos.process import TenantCategory
from repro.hostos.syscalls import Kernel
from repro.hostos.thread import ThreadState, cpu_phase, io_phase
from repro.units import millis


def make_kernel(engine, cores=4, threads_per_core=1, **scheduler_kwargs):
    spec = MachineSpec(sockets=1, cores_per_socket=cores, threads_per_core=threads_per_core)
    machine = Machine(engine, spec, name="sched-test")
    return Kernel(engine, machine, SchedulerSpec(**scheduler_kwargs))


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self, engine):
        kernel = make_kernel(engine)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        kernel.spawn_thread(process, [cpu_phase(millis(5))], on_complete=lambda t: finished.append(engine.now))
        engine.run()
        assert finished == [pytest.approx(millis(5))]
        assert process.cpu_time == pytest.approx(millis(5))

    def test_threads_run_in_parallel_on_idle_cores(self, engine):
        kernel = make_kernel(engine, cores=4)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(millis(10))], on_complete=lambda t: finished.append(engine.now))
        engine.run()
        assert len(finished) == 4
        assert max(finished) == pytest.approx(millis(10))

    def test_more_threads_than_cores_queue(self, engine):
        kernel = make_kernel(engine, cores=2, quantum=millis(100))
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(millis(10))], on_complete=lambda t: finished.append(engine.now))
        engine.run()
        # Two waves of two threads each.
        assert max(finished) == pytest.approx(millis(20))

    def test_idle_core_accounting(self, engine):
        kernel = make_kernel(engine, cores=4)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        assert kernel.idle_core_count() == 4
        kernel.spawn_thread(process, [cpu_phase(millis(5))])
        assert kernel.idle_core_count() == 3
        engine.run()
        assert kernel.idle_core_count() == 4

    def test_idle_core_mask_matches_ids(self, engine):
        kernel = make_kernel(engine, cores=4)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        kernel.spawn_thread(process, [cpu_phase(millis(5))])
        mask = kernel.scheduler.idle_core_mask()
        ids = kernel.scheduler.idle_core_ids()
        assert bin(mask).count("1") == len(ids) == 3

    def test_cpu_time_charged_to_category(self, engine):
        kernel = make_kernel(engine, cores=2)
        primary = kernel.create_process("svc", TenantCategory.PRIMARY)
        secondary = kernel.create_process("batch", TenantCategory.SECONDARY)
        kernel.spawn_thread(primary, [cpu_phase(millis(4))])
        kernel.spawn_thread(secondary, [cpu_phase(millis(6))])
        engine.run()
        assert kernel.accounting.busy_seconds(TenantCategory.PRIMARY) == pytest.approx(millis(4))
        assert kernel.accounting.busy_seconds(TenantCategory.SECONDARY) == pytest.approx(millis(6))


class TestQuantumAndFairness:
    def test_infinite_thread_never_terminates(self, engine):
        kernel = make_kernel(engine, cores=1, quantum=millis(10))
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        thread = kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=0.1)
        assert not thread.terminated
        assert process.cpu_time == pytest.approx(0.1, rel=0.2)

    def test_round_robin_shares_one_core(self, engine):
        kernel = make_kernel(engine, cores=1, quantum=millis(10))
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        a = kernel.spawn_thread(process, [cpu_phase(math.inf)], name="a")
        b = kernel.spawn_thread(process, [cpu_phase(math.inf)], name="b")
        engine.run(until=0.2)
        assert a.total_cpu_time == pytest.approx(b.total_cpu_time, rel=0.2)

    def test_waiting_thread_delayed_by_running_quantum(self, engine):
        """A newly-ready thread waits for the current quantum when all cores
        are busy — the mechanism behind Figure 4's tail blow-up."""
        kernel = make_kernel(engine, cores=1, quantum=millis(50))
        bully = kernel.create_process("batch", TenantCategory.SECONDARY)
        kernel.spawn_thread(bully, [cpu_phase(math.inf)])
        primary = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        # Arrives 5 ms into the bully's 50 ms quantum.
        engine.schedule(millis(5), lambda: kernel.spawn_thread(
            primary, [cpu_phase(millis(1))], on_complete=lambda t: finished.append(engine.now)))
        engine.run(until=0.2)
        assert finished, "primary thread never ran"
        # It had to wait until the quantum boundary at t=50ms.
        assert finished[0] >= millis(50)

    def test_work_conserving_when_core_idle(self, engine):
        kernel = make_kernel(engine, cores=2, quantum=millis(50))
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        kernel.spawn_thread(process, [cpu_phase(millis(1))], on_complete=lambda t: finished.append(engine.now))
        engine.run()
        # With idle cores available there is no queueing delay.
        assert finished[0] == pytest.approx(millis(1))


class TestAffinity:
    def test_job_affinity_restricts_cores(self, engine):
        kernel = make_kernel(engine, cores=4, quantum=millis(10))
        job = kernel.create_job_object("secondary")
        job.set_cpu_affinity(frozenset({0, 1}))
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=0.05)
        assert kernel.scheduler.cores_used_by_category(TenantCategory.SECONDARY) == 2
        assert kernel.idle_core_count() == 2

    def test_shrinking_affinity_preempts_immediately(self, engine):
        kernel = make_kernel(engine, cores=4, quantum=millis(100))
        job = kernel.create_job_object("secondary")
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=millis(5))
        assert kernel.idle_core_count() == 0
        job.set_cpu_affinity(frozenset({0}))
        assert kernel.scheduler.cores_used_by_category(TenantCategory.SECONDARY) == 1
        assert kernel.idle_core_count() == 3

    def test_growing_affinity_reclaims_cores(self, engine):
        kernel = make_kernel(engine, cores=4, quantum=millis(20))
        job = kernel.create_job_object("secondary")
        job.set_cpu_affinity(frozenset({0}))
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=millis(5))
        assert kernel.scheduler.cores_used_by_category(TenantCategory.SECONDARY) == 1
        job.set_cpu_affinity(frozenset({0, 1, 2, 3}))
        engine.run(until=millis(10))
        assert kernel.scheduler.cores_used_by_category(TenantCategory.SECONDARY) == 4

    def test_empty_affinity_parks_all_threads(self, engine):
        kernel = make_kernel(engine, cores=2, quantum=millis(10))
        job = kernel.create_job_object("secondary")
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=millis(5))
        job.set_cpu_affinity(frozenset())
        cpu_before = process.cpu_time
        engine.run(until=millis(50))
        assert process.cpu_time == pytest.approx(cpu_before)
        assert kernel.idle_core_count() == 2

    def test_unrestricted_primary_can_use_any_core(self, engine):
        kernel = make_kernel(engine, cores=2, quantum=millis(10))
        job = kernel.create_job_object("secondary")
        job.set_cpu_affinity(frozenset({0}))
        batch = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(batch)
        kernel.spawn_thread(batch, [cpu_phase(math.inf)])
        primary = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        kernel.spawn_thread(primary, [cpu_phase(millis(1))], on_complete=lambda t: finished.append(engine.now))
        engine.run(until=millis(20))
        assert finished[0] == pytest.approx(millis(1))


class TestRateControl:
    def test_rate_limit_bounds_cpu_share(self, engine):
        kernel = make_kernel(engine, cores=4, quantum=millis(10), rate_interval=millis(50))
        job = kernel.create_job_object("secondary")
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(math.inf)])
        job.set_cpu_rate(0.25)
        engine.run(until=1.0)
        share = process.cpu_time / (1.0 * 4)
        assert share == pytest.approx(0.25, rel=0.3)

    def test_rate_limited_job_throttles_and_recovers(self, engine):
        kernel = make_kernel(engine, cores=2, quantum=millis(10), rate_interval=millis(100))
        job = kernel.create_job_object("secondary")
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        kernel.spawn_thread(process, [cpu_phase(math.inf)])
        kernel.spawn_thread(process, [cpu_phase(math.inf)])
        job.set_cpu_rate(0.1)
        engine.run(until=millis(60))
        assert job.throttled
        engine.run(until=millis(110))
        # After the interval refresh the job runs again.
        assert not job.throttled or process.cpu_time > 0

    def test_removing_rate_limit_restores_full_speed(self, engine):
        kernel = make_kernel(engine, cores=1, quantum=millis(10), rate_interval=millis(50))
        job = kernel.create_job_object("secondary")
        process = kernel.create_process("batch", TenantCategory.SECONDARY)
        job.assign(process)
        kernel.spawn_thread(process, [cpu_phase(math.inf)])
        job.set_cpu_rate(0.1)
        engine.run(until=0.5)
        throttled_time = process.cpu_time
        job.set_cpu_rate(None)
        engine.run(until=1.0)
        unthrottled_delta = process.cpu_time - throttled_time
        assert unthrottled_delta > throttled_time * 2


class TestIoPhases:
    def test_io_phase_blocks_then_resumes(self, engine):
        kernel = make_kernel(engine, cores=2)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        kernel.spawn_thread(
            process,
            [cpu_phase(millis(1)), io_phase("ssd", "read", 64 * 1024), cpu_phase(millis(1))],
            on_complete=lambda t: finished.append(engine.now),
        )
        engine.run()
        assert len(finished) == 1
        # Total time exceeds pure CPU time because of the blocking read.
        assert finished[0] > millis(2)
        assert kernel.iostack.completions("svc", "ssd") == 1

    def test_program_starting_with_io(self, engine):
        kernel = make_kernel(engine, cores=1)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        kernel.spawn_thread(
            process,
            [io_phase("ssd", "read", 4096), cpu_phase(millis(1))],
            on_complete=lambda t: finished.append(engine.now),
        )
        engine.run()
        assert len(finished) == 1

    def test_blocked_thread_frees_core(self, engine):
        kernel = make_kernel(engine, cores=1)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        order = []
        kernel.spawn_thread(
            process,
            [cpu_phase(millis(1)), io_phase("hdd", "read", 1024 * 1024), cpu_phase(millis(1))],
            name="io-heavy",
            on_complete=lambda t: order.append("io-heavy"),
        )
        kernel.spawn_thread(
            process, [cpu_phase(millis(2))], name="cpu-only",
            on_complete=lambda t: order.append("cpu-only"),
        )
        engine.run()
        # The CPU-only thread finishes while the other waits for its HDD read.
        assert order == ["cpu-only", "io-heavy"]


class TestTermination:
    def test_terminate_running_thread(self, engine):
        kernel = make_kernel(engine, cores=1)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        thread = kernel.spawn_thread(process, [cpu_phase(math.inf)])
        engine.run(until=millis(5))
        kernel.terminate_thread(thread)
        assert thread.terminated
        assert kernel.idle_core_count() == 1

    def test_terminate_queued_thread(self, engine):
        kernel = make_kernel(engine, cores=1, quantum=millis(50))
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        kernel.spawn_thread(process, [cpu_phase(math.inf)])
        waiting = kernel.spawn_thread(process, [cpu_phase(millis(1))])
        engine.run(until=millis(5))
        assert waiting.state == ThreadState.READY
        kernel.terminate_thread(waiting)
        assert waiting.terminated
        assert kernel.scheduler.ready_queue_length() == 0

    def test_terminate_process_kills_all_threads(self, engine):
        kernel = make_kernel(engine, cores=2)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        threads = [kernel.spawn_thread(process, [cpu_phase(math.inf)]) for _ in range(3)]
        engine.run(until=millis(5))
        kernel.scheduler.terminate_process(process)
        assert all(t.terminated for t in threads)
        assert not process.alive

    def test_terminated_thread_completion_callback_not_called(self, engine):
        kernel = make_kernel(engine, cores=1)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        thread = kernel.spawn_thread(
            process,
            [io_phase("hdd", "read", 1024 * 1024), cpu_phase(millis(1))],
            on_complete=lambda t: finished.append(True),
        )
        kernel.terminate_thread(thread)
        engine.run()
        assert finished == []


class TestSmtAndPlacement:
    def test_dispatch_prefers_empty_physical_cores(self, engine):
        kernel = make_kernel(engine, cores=2, threads_per_core=2)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        a = kernel.spawn_thread(process, [cpu_phase(millis(5))])
        b = kernel.spawn_thread(process, [cpu_phase(millis(5))])
        siblings = kernel.machine.topology.siblings(a.core_id)
        assert b.core_id not in siblings

    def test_smt_sharing_slows_execution(self, engine):
        kernel = make_kernel(engine, cores=1, threads_per_core=2, smt_slowdown=0.5)
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = {}
        kernel.spawn_thread(process, [cpu_phase(millis(10))], name="first",
                            on_complete=lambda t: finished.setdefault("first", engine.now))
        kernel.spawn_thread(process, [cpu_phase(millis(10))], name="second",
                            on_complete=lambda t: finished.setdefault("second", engine.now))
        engine.run()
        # Both threads share one physical core, so 10 ms of work takes ~20 ms.
        assert finished["second"] >= millis(18)

    def test_global_placement_mode_still_works(self, engine):
        kernel = make_kernel(engine, cores=2, placement="global", quantum=millis(10))
        process = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        for _ in range(4):
            kernel.spawn_thread(process, [cpu_phase(millis(5))],
                                on_complete=lambda t: finished.append(engine.now))
        engine.run()
        assert len(finished) == 4

    def test_work_stealing_keeps_scheduler_work_conserving(self, engine):
        kernel = make_kernel(engine, cores=2, quantum=millis(20))
        batch = kernel.create_process("batch", TenantCategory.SECONDARY)
        # Two infinite threads occupy both cores; two short threads queue.
        kernel.spawn_thread(batch, [cpu_phase(math.inf)])
        kernel.spawn_thread(batch, [cpu_phase(math.inf)])
        primary = kernel.create_process("svc", TenantCategory.PRIMARY)
        finished = []
        for _ in range(2):
            kernel.spawn_thread(primary, [cpu_phase(millis(1))],
                                on_complete=lambda t: finished.append(engine.now))
        engine.run(until=0.2)
        assert len(finished) == 2
        # Once the first quantum expires both waiting threads complete quickly,
        # even if they were queued on the same core (one is stolen).
        assert max(finished) < millis(45)
