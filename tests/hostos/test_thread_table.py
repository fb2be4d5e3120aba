"""A process keeps only its live threads, so finished ones are freed at once."""

import gc
import math

from repro.config.schema import MachineSpec, SchedulerSpec
from repro.experiments import scenarios
from repro.experiments.single_machine import SingleMachineExperiment
from repro.hardware.machine import Machine
from repro.hostos.process import TenantCategory
from repro.hostos.syscalls import Kernel
from repro.hostos.thread import SimThread, cpu_phase
from repro.units import millis


def test_finished_threads_are_freed_without_the_collector():
    experiment = SingleMachineExperiment(scenarios.standalone(duration=0.5, warmup=0.1, seed=3))
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        experiment.run()
        kernel = experiment.assembly.kernel
        processes = {id(process) for process in kernel.processes()}
        kept = sum(
            1
            for obj in gc.get_objects()
            if isinstance(obj, SimThread) and id(obj.process) in processes
        )
    finally:
        if was_enabled:
            gc.enable()
    live = sum(len(process.live_threads()) for process in kernel.processes())
    queries = experiment.assembly.primary._queries.values()
    in_flight = sum(len(query.worker_threads) for query in queries)
    spawned = kernel._next_tid - 1
    assert spawned > 1000
    assert kept <= live + in_flight, f"{kept} of {spawned} spawned threads still reachable"


def test_scheduler_alone_owns_the_table(engine):
    # A thread added straight to the scheduler, bypassing Kernel.spawn_thread,
    # still enters its process's table and leaves it when it ends or is killed.
    spec = MachineSpec(sockets=1, cores_per_socket=2, threads_per_core=1)
    kernel = Kernel(engine, Machine(engine, spec, name="table-test"), SchedulerSpec())
    process = kernel.create_process("svc", TenantCategory.PRIMARY)
    finishing = SimThread(1001, "finishing", process, [cpu_phase(millis(1))], created_at=0.0)
    endless = SimThread(1002, "endless", process, [cpu_phase(math.inf)], created_at=0.0)
    kernel.scheduler.add_thread(finishing)
    kernel.scheduler.add_thread(endless)
    assert process.live_threads() == [finishing, endless]
    engine.run(until=millis(2))
    assert process.live_threads() == [endless]
    kernel.scheduler.terminate_thread(endless)
    assert process.threads == {}
