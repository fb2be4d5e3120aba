"""Property-based tests (hypothesis) for the scheduler's bookkeeping.

Random spawns, job-mask changes, rate limits, terminations, a process joining
the job while its threads run, and time steps, on 2-8 logical cores with and
without SMT under both placements.  After every step the idle mask, the ready
queues, the placement index and the live-thread tables must agree with what
the cores run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import MachineSpec, SchedulerSpec
from repro.hardware.machine import Machine
from repro.hostos.process import TenantCategory
from repro.hostos.syscalls import Kernel
from repro.hostos.thread import ThreadState, cpu_phase, io_phase
from repro.simulation.engine import SimulationEngine
from repro.units import millis

#: (physical cores, threads per core): 2-8 logical cores, SMT off and on.
LAYOUTS = [(2, 1), (3, 1), (5, 1), (8, 1), (1, 2), (2, 2), (3, 2), (4, 2)]


def _core_subsets(cores):
    return st.frozensets(st.integers(min_value=0, max_value=cores - 1), max_size=cores)


def _operation(cores):
    burst = st.one_of(
        st.just(math.inf), st.floats(min_value=0.0, max_value=millis(6), allow_nan=False)
    )
    return st.one_of(
        st.tuples(
            st.just("spawn"),
            st.sampled_from(["primary", "secondary", "late"]),
            burst,
            st.booleans(),
            st.one_of(st.none(), _core_subsets(cores)),
        ),
        st.tuples(st.just("mask"), st.one_of(st.none(), _core_subsets(cores))),
        st.tuples(
            st.just("rate"),
            st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0, allow_nan=False)),
        ),
        st.tuples(st.just("terminate"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("join")),
        st.tuples(st.just("step"), st.floats(min_value=0.0, max_value=millis(8), allow_nan=False)),
    )


@st.composite
def _scenario(draw):
    physical, smt = draw(st.sampled_from(LAYOUTS))
    cores = physical * smt
    placement = draw(st.sampled_from(["per_core", "global"]))
    # Start oversubscribed, so the ready queues are in play from the first
    # mask change on.
    batch = draw(st.integers(min_value=cores, max_value=2 * cores))
    operations = [("spawn", "secondary", math.inf, False, None)] * batch
    operations += draw(st.lists(_operation(cores), min_size=10, max_size=60))
    probes = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << cores) - 1), min_size=1, max_size=4)
    )
    return physical, smt, placement, operations, probes


def _shortest_queue_scan(lengths, allowed):
    """The reference placement: the allowed core with the shortest local
    queue, lowest core id on ties, found by scanning every core."""
    return min((lengths[core], core) for core in range(len(lengths)) if allowed >> core & 1)[1]


def _check(kernel, threads, exempt, probes):
    scheduler = kernel.scheduler
    running = scheduler._core_thread
    cores = len(running)
    queued = [(core, t) for core, queue in enumerate(scheduler._local_queues) for t in queue]
    queued += [(None, t) for t in scheduler._global_queue]

    # The idle mask equals the cores that run no thread.
    idle = {core for core in range(cores) if running[core] is None}
    assert scheduler.idle_core_mask() == sum(1 << core for core in idle)
    assert scheduler.idle_core_ids() == frozenset(idle)

    # No running or queued thread sits at a core outside its effective mask.
    for core in range(cores):
        thread = running[core]
        if thread is not None:
            assert thread.state == ThreadState.RUNNING and thread.core_id == core
            assert thread.process in exempt or thread.can_run_on(core)
    for core, thread in queued:
        assert thread.state == ThreadState.READY
        if core is not None:
            assert thread.process in exempt or thread.can_run_on(core)

    # No idle core could run a queued, unthrottled thread.
    for core in idle:
        for _, thread in queued:
            job = thread.process.job
            if job is None or not job.throttled:
                assert not thread.can_run_on(core), (core, thread)

    # The ready-queue count is exact.
    assert scheduler.ready_queue_length() == len(queued)

    # The placement index: each core's bit sits in exactly the bucket of its
    # local queue's length, the last bucket is not empty, the stored shortest
    # length is the minimum, and the index picks the scan's core.
    lengths = [len(queue) for queue in scheduler._local_queues]
    masks = scheduler._len_masks
    assert len(masks) == max(lengths) + 1
    for length, mask in enumerate(masks):
        assert mask == sum(1 << core for core in range(cores) if lengths[core] == length)
    assert scheduler._shortest == min(lengths)
    for allowed in probes:
        assert scheduler._shortest_queue(allowed) == _shortest_queue_scan(lengths, allowed)

    # Each process holds exactly its live threads, in spawn order.
    for thread in threads:
        assert (thread.tid in thread.process.threads) == (not thread.terminated)
    for process in kernel.processes():
        tids = [thread.tid for thread in process.live_threads()]
        assert tids == sorted(tids)


class TestSchedulerInvariants:
    @given(_scenario())
    @settings(max_examples=60, deadline=None)
    def test_bookkeeping_matches_the_cores(self, scenario):
        physical, smt, placement, operations, probes = scenario
        engine = SimulationEngine()
        spec = MachineSpec(sockets=1, cores_per_socket=physical, threads_per_core=smt)
        kernel = Kernel(
            engine,
            Machine(engine, spec, name="prop"),
            SchedulerSpec(quantum=millis(2), rate_interval=millis(5), placement=placement),
        )
        job = kernel.create_job_object("secondary")
        processes = {
            "primary": kernel.create_process("primary", TenantCategory.PRIMARY),
            "secondary": kernel.create_process("secondary", TenantCategory.SECONDARY),
            "late": kernel.create_process("late", TenantCategory.SECONDARY),
        }
        job.assign(processes["secondary"])
        # Processes that joined the job since its last limit change: their
        # threads may still sit at cores the mask forbids until the next one.
        exempt = set()
        job.add_listener(lambda _job: exempt.clear())
        threads = []
        for operation in operations:
            kind = operation[0]
            if kind == "spawn":
                _, name, burst, with_io, affinity = operation
                program = [cpu_phase(burst)]
                if with_io and burst != math.inf:
                    program += [io_phase("ssd", "read", 4096), cpu_phase(burst / 2)]
                threads.append(kernel.spawn_thread(processes[name], program, affinity=affinity))
            elif kind == "mask":
                job.set_cpu_affinity(operation[1])
            elif kind == "rate":
                job.set_cpu_rate(operation[1])
            elif kind == "terminate":
                if threads:
                    kernel.terminate_thread(threads[operation[1] % len(threads)])
            elif kind == "join":
                if processes["late"].job is None:
                    job.assign(processes["late"])
                    exempt.add(processes["late"])
            else:
                engine.run(until=engine.now + operation[1])
            _check(kernel, threads, exempt, probes)
