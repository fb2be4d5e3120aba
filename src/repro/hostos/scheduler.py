"""The simulated multicore thread scheduler.

This is the substrate the whole reproduction rests on.  It deliberately models
an *ordinary* work-conserving OS scheduler — the kind PerfIso must live with
because changing the production kernel is off the table (Section 3.1):

* Round-robin time slicing with a fixed quantum.
* **Per-core ready queues with wake-time placement** (the default): a thread
  that becomes ready is dispatched immediately only if an idle core in its
  affinity mask exists; otherwise it is queued behind one specific core's
  running thread (its placement core) and waits for that core's quantum
  boundary.  Idle cores steal waiting threads, so the scheduler remains work
  conserving — but when *no* core is idle there is no migration, which is
  exactly why an unmanaged CPU-bound secondary inflates the primary's tail
  latency by an order of magnitude (Figure 4).  An idealised single global
  queue is available as ``placement="global"`` for ablation studies.
* **Hyper-threading contention**: when both logical siblings of a physical
  core are busy, each runs at ``smt_slowdown`` of full speed.  Dispatch
  prefers fully-idle physical cores, so a half-loaded machine ("mid" bully)
  still slows the primary's bursts even though cores look available.
* Affinity masks (thread- and job-level) are honoured on every dispatch, and
  changing a job's mask immediately preempts threads running on (or queued
  at) newly-forbidden cores.  This is the knob CPU blind isolation drives.
* Job-level CPU rate control is enforced per interval as a duty cycle, which
  reproduces the bursty occupancy that makes cycle throttling a poor
  isolation mechanism (Section 6.1.4).
* Affinity and idle state are int bitmasks (bit ``i`` = logical core ``i``):
  a thread's effective affinity is one ``&`` of its own mask and its job's,
  placement takes the lowest set bit of ``idle & allowed``, and a mask change
  visits only the set bits of the cores it forbids.  The idle mask is what the
  kernel syscall facade reports with O(1) cost — the low-latency signal blind
  isolation polls.
* A **placement index** keeps, per ready-queue length, the mask of cores
  whose local queue has that length, plus the shortest length.  Queueing a
  thread takes the lowest core of the first length bucket that meets its
  affinity (shortest queue, lowest core id), and work stealing walks the
  buckets from the longest down — a few mask operations instead of a scan
  over every allowed core or a sorted candidate list.

There is deliberately **no** priority preemption between tenants: the primary
and secondary compete as equals unless PerfIso intervenes.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional

from ..config.schema import SchedulerSpec
from ..errors import SchedulerError
from ..hardware.topology import CpuTopology
from ..simulation.engine import SimulationEngine
from ..simulation.events import EventPriority
from .accounting import CpuAccounting
from .iostack import IoStack
from .jobobject import JobObject
from .process import OsProcess
from .thread import SimThread, ThreadState, mask_cores

__all__ = ["Scheduler"]

_EPSILON = 1e-12
#: Tolerance used when deciding whether a CPU phase has finished; durations
#: are milliseconds-scale so a nanosecond of residual work is "done".
_WORK_EPSILON = 1e-9
_INF = math.inf
_KERNEL = EventPriority.KERNEL
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING
_BLOCKED = ThreadState.BLOCKED
_TERMINATED = ThreadState.TERMINATED


class Scheduler:
    """Work-conserving, quantum-based, affinity- and SMT-aware scheduler."""

    def __init__(
        self,
        engine: SimulationEngine,
        topology: CpuTopology,
        spec: SchedulerSpec,
        accounting: CpuAccounting,
        iostack: IoStack,
    ) -> None:
        self._engine = engine
        self._spec = spec
        self._accounting = accounting
        #: Where a thread's I/O phase is submitted; its completion resumes
        #: the thread's program.
        self._iostack = iostack
        core_count = topology.logical_core_count
        self._core_thread: List[Optional[SimThread]] = [None] * core_count
        self._last_tid_on_core: List[Optional[int]] = [None] * core_count
        #: Every logical core, and the idle ones (bit i set => core i idle):
        #: the one idle-core structure, and the signal the idle-mask syscall
        #: reports.
        self._all_mask = (1 << core_count) - 1
        self._idle_mask = self._all_mask
        #: Per logical core, the mask of every logical core on its physical
        #: core (itself included), and the logical cores whose physical core
        #: is fully idle.  Together they answer "does this dispatch share a
        #: physical core?" and "which idle cores sit on an empty physical
        #: core?" with a few integer operations.
        self._phys_mask: List[int] = [0] * core_count
        for core in range(core_count):
            for sibling in topology.siblings(core):
                self._phys_mask[core] |= 1 << sibling
        self._free_phys = self._all_mask
        #: Cores currently running threads of each tenant category, maintained
        #: incrementally at dispatch/preempt time.
        self._cat_running: Dict[str, int] = {}
        self._per_core = spec.placement == "per_core"
        #: Fault-injection seam: a machine-wide dispatch-rate multiplier
        #: (``None`` = healthy).  Degraded/straggler-core faults set it to
        #: ``1/slowdown`` for a window; it multiplies the SMT-adjusted rate
        #: at dispatch time, so the healthy path pays one ``is None`` check.
        self._speed_factor: Optional[float] = None
        self._local_queues: List[Deque[SimThread]] = [deque() for _ in range(core_count)]
        self._global_queue: Deque[SimThread] = deque()
        self._queued_threads = 0
        #: The placement index: ``_len_masks[n]`` is the mask of cores whose
        #: local queue holds exactly ``n`` threads (every core sits in exactly
        #: one bucket, and the last bucket is never empty), and ``_shortest``
        #: is the smallest ``n`` with a non-empty bucket.
        self._len_masks: List[int] = [self._all_mask]
        self._shortest = 0
        #: Ready-but-waiting threads grouped by the job object they belonged
        #: to at enqueue time (``None`` key counted separately).  The dispatch
        #: path consults these counts to skip full queue scans when nothing
        #: queued could possibly run on the freed core — the common case under
        #: throttling and tight affinity masks.
        self._nojob_queued = 0
        self._job_queued: Dict[JobObject, int] = {}
        self._rate_jobs: Dict[str, JobObject] = {}
        self._rate_refresh_events: Dict[str, object] = {}

    # ----------------------------------------------------------------- hooks
    def set_speed_factor(self, factor: Optional[float]) -> None:
        """Set (or clear, with ``None``) the machine-wide dispatch-rate factor.

        Used by fault injection to model degraded/straggler cores: every
        subsequent dispatch progresses at ``factor`` times normal speed.
        Slices already running keep the rate they were dispatched at; at
        quantum granularity the boundary error is one slice per core.
        """
        if factor is not None and factor <= 0.0:
            raise SchedulerError(f"speed factor must be positive, got {factor}")
        self._speed_factor = factor

    # ------------------------------------------------------------ inspection
    @property
    def spec(self) -> SchedulerSpec:
        return self._spec

    @property
    def core_count(self) -> int:
        return len(self._core_thread)

    def idle_core_ids(self) -> FrozenSet[int]:
        """The idle-core set (what the idle-mask syscall reports)."""
        return mask_cores(self._idle_mask)

    def idle_core_count(self) -> int:
        return self._idle_mask.bit_count()

    def idle_core_mask(self) -> int:
        return self._idle_mask

    def ready_queue_length(self) -> int:
        """Total number of runnable-but-waiting threads."""
        return self._queued_threads

    def cores_used_by_category(self, category: str) -> int:
        """Number of cores currently running threads of ``category``."""
        return self._cat_running.get(category, 0)

    # ------------------------------------------------------------- lifecycle
    def add_thread(self, thread: SimThread) -> None:
        """Enter a newly created thread in its process's live-thread table and
        make it runnable.  The scheduler alone inserts into and deletes from
        that table; a thread leaves it the moment it terminates."""
        if thread.state != ThreadState.NEW:
            raise SchedulerError(f"thread {thread.name!r} was already added")
        thread.process.threads[thread.tid] = thread
        if thread.program[0][0] == "io":
            # A program may start with I/O (e.g. a worker that reads the index
            # before computing); submit it straight away.
            thread.state = _BLOCKED
            self._submit_io(thread)
            return
        self._make_ready(thread)

    def terminate_thread(self, thread: SimThread) -> None:
        """Forcefully terminate a thread regardless of its state."""
        if thread.terminated:
            return
        del thread.process.threads[thread.tid]
        if thread.state == _RUNNING:
            core_id = thread.core_id
            self._stop_running(thread)
            thread.state = _TERMINATED
            thread.core_id = None
            self._dispatch_core(core_id)
        elif thread.state == _READY:
            self._remove_from_queues(thread)
            thread.state = _TERMINATED
        else:
            # NEW or BLOCKED: the I/O completion path checks for termination.
            thread.state = _TERMINATED

    def terminate_process(self, process: OsProcess) -> None:
        """Terminate every live thread of ``process`` in spawn order, which
        decides the order the freed cores are dispatched in."""
        for thread in process.live_threads():
            self.terminate_thread(thread)
        process.alive = False

    # ------------------------------------------------------------ job events
    def on_job_changed(self, job: JobObject) -> None:
        """React to an affinity or rate-limit change on a job object."""
        self._configure_rate_control(job)
        self._enforce_affinity(job)
        # A grown mask (or a removed throttle) may allow parked threads to run.
        self._fill_idle_cores()

    # ----------------------------------------------------------- ready queues
    def _make_ready(self, thread: SimThread) -> None:
        """Run ``thread`` on an idle core of its affinity if one exists —
        one on an empty physical core first, lowest id for determinism, like
        a real scheduler — and queue it otherwise."""
        thread.state = _READY
        idle = self._idle_mask
        if idle:
            job = thread.process.job
            if job is None:
                idle &= thread.affinity_mask
            elif job.throttled:
                idle = 0
            else:
                idle &= thread.affinity_mask & job.affinity_mask
            if idle:
                free = idle & self._free_phys
                if free:
                    idle = free
                self._dispatch(thread, (idle & -idle).bit_length() - 1)
                return
        self._enqueue(thread)

    def _enqueue(self, thread: SimThread) -> None:
        self._queued_threads += 1
        job = thread.process.job
        thread.queued_job = job
        if job is None:
            self._nojob_queued += 1
            allowed = thread.affinity_mask & self._all_mask
        else:
            counts = self._job_queued
            counts[job] = counts.get(job, 0) + 1
            allowed = thread.affinity_mask & job.affinity_mask & self._all_mask
        if not self._per_core or not allowed:
            # The global queue; under per-core placement it parks a thread
            # whose affinity mask is empty until the mask grows again.
            thread.queued_core = None
            self._global_queue.append(thread)
            return
        core_id = self._shortest_queue(allowed)
        queue = self._local_queues[core_id]
        self._enqueued_at(core_id, len(queue))
        thread.queued_core = core_id
        queue.append(thread)

    def _shortest_queue(self, allowed: int) -> int:
        """The core in ``allowed`` with the shortest local queue, lowest id on
        ties: the lowest core of the first length bucket that meets the mask.
        Every core sits in some bucket, so the walk ends by the last one."""
        masks = self._len_masks
        length = self._shortest
        fit = masks[length] & allowed
        while not fit:
            length += 1
            fit = masks[length] & allowed
        return (fit & -fit).bit_length() - 1

    def _enqueued_at(self, core_id: int, length: int) -> None:
        """Move ``core_id`` up one length bucket: its local queue, holding
        ``length`` threads, is about to gain one."""
        bit = 1 << core_id
        masks = self._len_masks
        rest = masks[length] ^ bit
        masks[length] = rest
        if length + 1 < len(masks):
            masks[length + 1] |= bit
        else:
            masks.append(bit)
        if not rest and length == self._shortest:
            self._shortest = length + 1

    def _dequeued_at(self, core_id: int, length: int) -> None:
        """Move ``core_id`` down one length bucket: its local queue just lost
        a thread and now holds ``length``."""
        bit = 1 << core_id
        masks = self._len_masks
        masks[length] |= bit
        rest = masks[length + 1] ^ bit
        if rest or length + 2 < len(masks):
            masks[length + 1] = rest
        else:
            masks.pop()
        if length < self._shortest:
            self._shortest = length

    def _note_dequeued(self, thread: SimThread) -> None:
        """Reverse the ready count :meth:`_enqueue` took (keyed on the job
        stored at enqueue)."""
        self._queued_threads -= 1
        thread.queued_core = None
        job = thread.queued_job
        thread.queued_job = None
        if job is None:
            self._nojob_queued -= 1
        else:
            self._job_queued[job] -= 1

    def _has_eligible_queued(self, core_id: int) -> bool:
        """Whether any queued thread could possibly run on ``core_id``.

        Consulted before every dispatch scan; group counts make the answer
        O(jobs) instead of O(queued threads).  Thread-level affinity is
        ignored here, so a ``True`` may still scan and find nothing (harmless),
        but a ``False`` is always exact — no eligible thread is ever skipped.
        """
        if self._nojob_queued:
            return True
        bit = 1 << core_id
        for job, count in self._job_queued.items():
            if count and not job.throttled and job.affinity_mask & bit:
                return True
        return False

    def _remove_from_queues(self, thread: SimThread) -> None:
        core_id = thread.queued_core
        if core_id is None:
            self._global_queue.remove(thread)
        else:
            queue = self._local_queues[core_id]
            queue.remove(thread)
            self._dequeued_at(core_id, len(queue))
        self._note_dequeued(thread)

    def _pop_eligible(
        self, queue: Deque[SimThread], core_id: int, owner: Optional[int] = None
    ) -> Optional[SimThread]:
        """Take the first thread in ``queue`` that may run on ``core_id``;
        ``owner`` is the core whose local queue it is (``None`` for the
        global queue)."""
        # Eligibility (not terminated, job not throttled, affinity admits the
        # core) is checked inline: this loop runs for every queued thread on
        # every dispatch, so per-thread method calls are too expensive.
        index = 0
        bit = 1 << core_id
        for thread in queue:
            if thread.state != _TERMINATED:
                job = thread.process.job
                if (
                    thread.affinity_mask & bit
                    if job is None
                    else not job.throttled and thread.affinity_mask & job.affinity_mask & bit
                ):
                    if index == 0:
                        queue.popleft()
                    else:
                        del queue[index]
                    if owner is not None:
                        self._dequeued_at(owner, len(queue))
                    self._note_dequeued(thread)
                    return thread
            index += 1
        return None

    def _dispatch_core(self, core_id: int) -> None:
        """Give an idle core to a waiting thread (local queue, then stealing)."""
        if self._core_thread[core_id] is not None:
            return
        if self._queued_threads == 0:
            return
        if not self._has_eligible_queued(core_id):
            return
        thread = None
        if self._per_core:
            local = self._local_queues[core_id]
            if local:
                thread = self._pop_eligible(local, core_id, core_id)
            if thread is None and self._global_queue:
                thread = self._pop_eligible(self._global_queue, core_id)
            if thread is None:
                thread = self._steal(core_id)
        elif self._global_queue:
            thread = self._pop_eligible(self._global_queue, core_id)
        if thread is not None:
            self._dispatch(thread, core_id)

    def _steal(self, core_id: int) -> Optional[SimThread]:
        """Work stealing: the other cores' queues, longest first (ties by
        lowest core id), so load spreads out once cores become idle."""
        masks = self._len_masks
        queues = self._local_queues
        others = ~(1 << core_id)
        for length in range(len(masks) - 1, 0, -1):
            victims = masks[length] & others
            while victims:
                low = victims & -victims
                victim = low.bit_length() - 1
                thread = self._pop_eligible(queues[victim], core_id, victim)
                if thread is not None:
                    return thread
                victims ^= low
        return None

    def _fill_idle_cores(self) -> None:
        idle = self._idle_mask
        # Ascending over the cores idle on entry; each is re-checked, because
        # an earlier dispatch may have claimed it.
        while idle and self._queued_threads:
            low = idle & -idle
            core_id = low.bit_length() - 1
            if self._core_thread[core_id] is None:
                self._dispatch_core(core_id)
            idle ^= low

    # --------------------------------------------------------------- running
    def _dispatch(self, thread: SimThread, core_id: int) -> None:
        core_thread = self._core_thread
        if core_thread[core_id] is not None:
            raise SchedulerError(f"core {core_id} is already running a thread")
        if thread.program[thread.phase_index][0] != "cpu":
            raise SchedulerError(f"thread {thread.name!r} dispatched while not in a CPU phase")
        spec = self._spec
        process = thread.process
        idle = self._idle_mask
        phys = self._phys_mask[core_id]
        # A busy hyper-thread sibling means this physical core is now shared.
        shared = (idle & phys) != phys
        self._idle_mask = idle & ~(1 << core_id)
        self._free_phys &= ~phys
        core_thread[core_id] = thread
        category = process.category
        cat_running = self._cat_running
        cat_running[category] = cat_running.get(category, 0) + 1
        now = self._engine._now
        thread.state = _RUNNING
        thread.core_id = core_id
        tid = thread.tid
        if self._last_tid_on_core[core_id] != tid:
            self._last_tid_on_core[core_id] = tid
            self._accounting.charge_os(spec.context_switch_cost)
        rate = spec.smt_slowdown if shared else 1.0
        if self._speed_factor is not None:
            rate *= self._speed_factor
        remaining = thread.remaining_in_phase
        quantum = spec.quantum
        if remaining == _INF:
            slice_length = quantum
        else:
            wall_needed = remaining / rate
            slice_length = quantum if quantum < wall_needed else wall_needed
        job = process.job
        if job is None or job.cpu_rate_fraction is None:
            thread.slice_reserved = False
        else:
            # Reserve budget at dispatch time so concurrently running threads
            # cannot collectively overshoot the duty cycle; the unused part of
            # a reservation is refunded on preemption.
            duty = job.cpu_rate_fraction * spec.rate_interval
            slice_length = min(slice_length, duty, max(job.rate_budget, _EPSILON))
            thread.slice_reserved = True
        if slice_length < _EPSILON:
            slice_length = _EPSILON
        if thread.slice_reserved:
            job.rate_budget -= slice_length
        thread.dispatched_at = now
        thread.slice_length = slice_length
        thread.slice_rate = rate
        # Unchecked push: schedule()'s delay check and *args packing cost
        # real time at about one dispatch per quantum per core.
        thread.slice_event = self._engine.push(
            now + slice_length, self._slice_end, (thread,), _KERNEL
        )

    def _stop_running(self, thread: SimThread) -> float:
        """Charge the elapsed part of the current slice and free the core."""
        core_id = thread.core_id
        if thread.state != _RUNNING or core_id is None:
            raise SchedulerError(f"thread {thread.name!r} is not running")
        elapsed = self._engine._now - thread.dispatched_at
        if elapsed < 0.0:
            elapsed = 0.0
        slice_length = thread.slice_length
        if elapsed > slice_length:
            elapsed = slice_length
        # ``_slice_end`` clears the event before it gets here; a preemption
        # or a termination still has one to cancel.
        if thread.slice_event is not None:
            self._engine.cancel(thread.slice_event)
            thread.slice_event = None
        self._core_thread[core_id] = None
        idle = self._idle_mask | 1 << core_id
        self._idle_mask = idle
        phys = self._phys_mask[core_id]
        if idle & phys == phys:
            self._free_phys |= phys
        process = thread.process
        self._cat_running[process.category] -= 1
        if thread.slice_reserved:
            job = process.job
            if job is not None and job.cpu_rate_fraction is not None:
                # Refund the unused part of the budget reserved at dispatch.
                job.rate_budget += max(0.0, slice_length - elapsed)
            thread.slice_reserved = False
        if elapsed > 0:
            thread.total_cpu_time += elapsed
            remaining = thread.remaining_in_phase
            if remaining != _INF:
                remaining -= elapsed * thread.slice_rate
                thread.remaining_in_phase = remaining if remaining > 0.0 else 0.0
            self._accounting.charge(process.category, elapsed)
            process.cpu_time += elapsed
        return elapsed

    def _phase_finished(self, thread: SimThread) -> bool:
        return (
            thread.is_cpu_phase
            and not math.isinf(thread.remaining_in_phase)
            and thread.remaining_in_phase <= _WORK_EPSILON
        )

    def _slice_end(self, thread: SimThread) -> None:
        thread.slice_event = None
        if thread.state != _RUNNING:
            return
        core_id = thread.core_id
        self._stop_running(thread)
        thread.core_id = None

        job = thread.process.job
        if (
            job is not None
            and job.cpu_rate_fraction is not None
            and job.rate_budget <= _EPSILON
            and not job.throttled
        ):
            self._throttle_job(job)

        # The thread is still on its CPU phase here, so the phase is finished
        # iff the remaining work hit zero (inf fails the comparison).
        if thread.remaining_in_phase <= _WORK_EPSILON:
            self._continue_program(thread)
            self._dispatch_core(core_id)
            return
        # Hand the freed core to waiting threads first (round robin), then
        # requeue the preempted thread.
        self._dispatch_core(core_id)
        self._make_ready(thread)

    def _continue_program(self, thread: SimThread) -> None:
        """Advance a thread past a finished phase: make it ready for the next
        CPU phase, block it on the next I/O phase, or end it."""
        index = thread.phase_index + 1
        thread.phase_index = index
        program = thread.program
        if index >= len(program):
            thread.state = _TERMINATED
            del thread.process.threads[thread.tid]
            if thread.on_complete is not None:
                thread.on_complete(thread)
            return
        phase = program[index]
        if phase[0] == "cpu":
            thread.remaining_in_phase = float(phase[1])
            self._make_ready(thread)
        else:
            thread.remaining_in_phase = 0.0
            thread.state = _BLOCKED
            self._submit_io(thread)

    def _submit_io(self, thread: SimThread) -> None:
        """Submit the thread's current I/O phase; its completion resumes the
        program unless the thread was terminated while blocked."""

        def done(_request) -> None:
            if thread.state != _TERMINATED:
                self._continue_program(thread)

        _, volume, op, size_bytes = thread.program[thread.phase_index]
        self._iostack.submit(thread.process, volume, op, size_bytes, done)

    # ---------------------------------------------------------- rate control
    def _preempt_job_threads(self, job: JobObject) -> None:
        """Preempt every running member thread so it is re-dispatched under the
        job's current limits (used when a rate limit is first configured)."""
        for core_id, running in enumerate(self._core_thread):
            if running is None or running.process.job is not job:
                continue
            self._stop_running(running)
            running.core_id = None
            if self._phase_finished(running):
                self._continue_program(running)
            else:
                running.state = _READY
                self._enqueue(running)
            self._dispatch_core(core_id)

    def _configure_rate_control(self, job: JobObject) -> None:
        has_rate = job.cpu_rate_fraction is not None
        registered = job.name in self._rate_jobs
        if has_rate and not registered:
            self._rate_jobs[job.name] = job
            job.rate_budget = (
                job.cpu_rate_fraction * self._spec.rate_interval * self.core_count
            )
            job.throttled = False
            event = self._engine.schedule(
                self._spec.rate_interval,
                self._refresh_rate_budget,
                job,
                priority=EventPriority.KERNEL,
            )
            self._rate_refresh_events[job.name] = event
            self._preempt_job_threads(job)
        elif not has_rate and registered:
            self._rate_jobs.pop(job.name, None)
            event = self._rate_refresh_events.pop(job.name, None)
            self._engine.cancel(event)
            job.throttled = False

    def _refresh_rate_budget(self, job: JobObject) -> None:
        if job.cpu_rate_fraction is None:
            return
        job.rate_budget = job.cpu_rate_fraction * self._spec.rate_interval * self.core_count
        job.throttled = False
        self._rate_refresh_events[job.name] = self._engine.schedule(
            self._spec.rate_interval,
            self._refresh_rate_budget,
            job,
            priority=EventPriority.KERNEL,
        )
        self._fill_idle_cores()

    def _throttle_job(self, job: JobObject) -> None:
        job.throttled = True
        for core_id, running in enumerate(self._core_thread):
            if running is None or running.process.job is not job:
                continue
            self._stop_running(running)
            running.core_id = None
            running.state = _READY
            self._enqueue(running)
            self._dispatch_core(core_id)

    # ------------------------------------------------------------- affinity
    def _enforce_affinity(self, job: JobObject) -> None:
        # Preempt member threads running on newly-forbidden cores.
        self._preempt_forbidden(job)
        # Re-place member threads queued at cores they may no longer use.  A
        # thread is queued inside its own mask, so only the queues at cores
        # outside the job's mask can hold one.
        if self._per_core and self._queued_threads:
            queues = self._local_queues
            outside = self._all_mask & ~job.affinity_mask
            while outside:
                low = outside & -outside
                core_id = low.bit_length() - 1
                queue = queues[core_id]
                outside ^= low
                if not queue:
                    continue
                stranded = [t for t in queue if t.process.job is job]
                for thread in stranded:
                    queue.remove(thread)
                    self._dequeued_at(core_id, len(queue))
                    self._note_dequeued(thread)
                    self._make_ready(thread)

    def _preempt_forbidden(self, job: JobObject) -> None:
        # Only busy cores outside the mask (every busy core while the job is
        # throttled) can run a member thread that must go.  No member thread
        # can be dispatched to such a core during the walk, so the snapshot
        # taken on entry misses none.  Membership is checked per core: a
        # thread dispatched before its process joined the job runs anywhere.
        forbidden = self._all_mask & ~self._idle_mask
        if not job.throttled:
            forbidden &= ~job.affinity_mask
        core_thread = self._core_thread
        while forbidden:
            low = forbidden & -forbidden
            core_id = low.bit_length() - 1
            forbidden ^= low
            running = core_thread[core_id]
            if running is None or running.process.job is not job:
                continue
            self._stop_running(running)
            running.core_id = None
            if self._phase_finished(running):
                self._continue_program(running)
            else:
                running.state = _READY
                self._enqueue(running)
            self._dispatch_core(core_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(cores={self.core_count}, idle={self.idle_core_count()}, "
            f"queued={self._queued_threads})"
        )
