"""Simulation-kernel speed benchmark and perf regression guard.

Measures kernel throughput (**events/s**): the five Figure 8 scenarios run
straight on :class:`SingleMachineExperiment` (no runner, no cache), with
the engines' executed-event counters summed.  The same runs are repeated
with a streaming :class:`~repro.telemetry.stream.TelemetrySession`
attached, and the overhead versus the uninstrumented rate is printed and,
under the perf guard, must stay within :data:`MAX_TELEMETRY_OVERHEAD`.
End-to-end wall times of the paper's workloads are ``perfbench/``'s job.

Perf guard: when ``REPRO_PERF_GUARD`` is set (the nightly CI job sets it),
the test fails if events/s falls more than :data:`MAX_REGRESSION` below
:data:`BASELINE_EVENTS_PER_S`.  The baseline was measured on a 2-CPU
container; if the nightly runners' single-thread performance drops below
~75 % of that, re-baseline the constant from a nightly measurement in a
change of its own rather than widening the tolerance.
"""

from __future__ import annotations

import gc
import os
import statistics
import tempfile
import time

from conftest import DURATION, SEED, WARMUP

from repro.experiments import matrix
from repro.experiments.single_machine import SingleMachineExperiment
from repro.telemetry import TelemetrySession

#: Environment variable enabling the perf guards (set by the nightly CI job).
PERF_GUARD_ENV = "REPRO_PERF_GUARD"

#: Maximum tolerated events/s regression before the guard fails the test.
MAX_REGRESSION = 0.25

#: Kernel throughput the guard's floor is taken from: this benchmark's
#: events/s as recorded at commit 39628e4 (2-CPU container).
BASELINE_EVENTS_PER_S = 87_023.7

#: Maximum tolerated slowdown when telemetry streaming is enabled.
MAX_TELEMETRY_OVERHEAD = 0.10

#: Maximum tolerated slowdown from the fault-injection seam when no faults
#: are declared ("zero measurable": within paired-measurement noise).
MAX_FAULTS_OVERHEAD = 0.03


def _fig8_specs():
    return [
        (dict(variant.axis_values)["run"], variant.spec)
        for variant in matrix.expand("fig8", duration=DURATION, warmup=WARMUP, seed=SEED)
    ]


def test_simcore_speed_and_guard():
    # ---- raw kernel throughput: direct experiments, engines instrumented,
    # measured with and without telemetry streaming.  A shared runner sees
    # multi-second noise episodes that dwarf the true telemetry cost, so
    # the overhead is estimated the way that survives them:
    #
    # * one full warmup pass is run and discarded — CPython's adaptive
    #   interpreter makes first-execution legs 30-50 % slower, which would
    #   otherwise be charged to whichever side ran first;
    # * each sweep runs the uninstrumented and instrumented leg
    #   *back-to-back per scenario*, alternating which goes first so
    #   position bias cancels, and a noise episode lands on at most one
    #   ~1 s leg of one pair;
    # * legs are timed with ``time.process_time`` (CPU time), which is
    #   blind to the scheduler preemptions that dominate wall-clock
    #   scatter on a shared box;
    # * the guarded figure aggregates the *per-scenario medians* across
    #   three sweeps, so an episode that does land inside a leg is voted
    #   out instead of polluting a whole-sweep sum.
    #
    # An independent best-of-N per path — the original design — let one
    # lucky uninstrumented trial manufacture a double-digit overhead
    # figure from a ~5 % effect.
    sweeps = 3
    specs = _fig8_specs()
    plain_cpu_s = {approach: [] for approach, _ in specs}
    telemetry_cpu_s = {approach: [] for approach, _ in specs}
    events_by_scenario = {}
    with tempfile.TemporaryDirectory() as scratch:
        warm_path = os.path.join(scratch, "bench_telemetry_warmup.jsonl")
        with TelemetrySession.to_path(warm_path, source="bench-simcore") as session:
            for approach, spec in specs:
                SingleMachineExperiment(spec).run()
                SingleMachineExperiment(spec, scenario=approach).run(telemetry=session)
        for sweep in range(sweeps):
            stream_path = os.path.join(scratch, f"bench_telemetry_{sweep}.jsonl")
            with TelemetrySession.to_path(stream_path, source="bench-simcore") as session:
                for index, (approach, spec) in enumerate(specs):
                    for leg in range(2):
                        gc.collect()  # don't charge earlier garbage here
                        if (leg + sweep + index) % 2 == 0:
                            start = time.process_time()
                            experiment = SingleMachineExperiment(spec)
                            experiment.run()
                            plain_cpu_s[approach].append(time.process_time() - start)
                            events_by_scenario[approach] = (
                                experiment.engine.events_executed
                            )
                        else:
                            # Instrumented leg: the probe seam plus 128
                            # JSONL snapshots (and controller decide spans)
                            # per run must stay within
                            # MAX_TELEMETRY_OVERHEAD of the plain leg.
                            start = time.process_time()
                            experiment = SingleMachineExperiment(spec, scenario=approach)
                            experiment.run(telemetry=session)
                            telemetry_cpu_s[approach].append(
                                time.process_time() - start
                            )
    direct_seconds = sum(
        statistics.median(times) for times in plain_cpu_s.values()
    )
    telemetry_seconds = sum(
        statistics.median(times) for times in telemetry_cpu_s.values()
    )
    telemetry_overhead = telemetry_seconds / direct_seconds - 1.0
    events_executed = sum(events_by_scenario.values())
    events_per_s = events_executed / direct_seconds
    assert events_executed > 0
    # The instrumented rate is derived from the overhead ratio rather than
    # measured against its own wall-clock sum so the printed figures stay
    # mutually consistent even when the median sweep differs per metric; it
    # is normalised by the *domain* event count (probe events execute too,
    # and their work is charged to the wall clock).
    events_per_s_telemetry = events_per_s / (1.0 + telemetry_overhead)
    print(
        f"\nkernel: {events_executed} events, {events_per_s:.1f} events/s, "
        f"{events_per_s_telemetry:.1f} with telemetry "
        f"({telemetry_overhead:+.2%} overhead)"
    )

    if os.environ.get(PERF_GUARD_ENV):
        assert telemetry_overhead <= MAX_TELEMETRY_OVERHEAD, (
            f"telemetry overhead {telemetry_overhead:.1%} exceeds the "
            f"{MAX_TELEMETRY_OVERHEAD:.0%} budget "
            f"({events_per_s:.0f} -> {events_per_s_telemetry:.0f} events/s)"
        )
        floor = BASELINE_EVENTS_PER_S * (1.0 - MAX_REGRESSION)
        assert events_per_s >= floor, (
            f"kernel throughput regressed: {events_per_s:.0f} events/s is below "
            f"{floor:.0f} (baseline {BASELINE_EVENTS_PER_S:.0f} events/s minus "
            f"the {MAX_REGRESSION:.0%} tolerance)"
        )


def test_disabled_faults_zero_overhead():
    """The fault-injection seam must be free when no faults are declared.

    Paired legs run the same fig8 blind-isolation scenario with
    ``faults=None`` and with an explicit empty :class:`FaultPlanSpec`
    — both must take the no-injector fast path, execute the identical event
    count, and (under the perf guard) agree on kernel throughput within
    paired-measurement noise.  This is the events/s face of the subsystem's
    zero-fault contract; the byte-identical-summary face is pinned in
    ``tests/faults/test_schedules.py``.
    """
    import dataclasses

    from repro.config.schema import FaultPlanSpec
    from repro.experiments import scenarios

    plain_spec = scenarios.blind_isolation(
        qps=600.0, duration=DURATION, warmup=WARMUP, seed=SEED
    )
    noop_spec = dataclasses.replace(plain_spec, faults=FaultPlanSpec())

    # One discarded warmup pass per path (CPython's adaptive interpreter),
    # then alternating back-to-back legs timed on CPU time — the same
    # noise discipline as the telemetry-overhead estimate above.
    SingleMachineExperiment(plain_spec).run()
    SingleMachineExperiment(noop_spec).run()
    timings = {id(plain_spec): [], id(noop_spec): []}
    events = set()
    for sweep in range(3):
        order = (plain_spec, noop_spec) if sweep % 2 == 0 else (noop_spec, plain_spec)
        for spec in order:
            gc.collect()
            start = time.process_time()
            experiment = SingleMachineExperiment(spec)
            experiment.run()
            timings[id(spec)].append(time.process_time() - start)
            events.add(experiment.engine.events_executed)
    assert len(events) == 1  # the no-op plan perturbs not a single event

    overhead = (
        statistics.median(timings[id(noop_spec)])
        / statistics.median(timings[id(plain_spec)])
        - 1.0
    )
    print(f"\ndisabled-faults overhead: {overhead:+.2%}")
    if os.environ.get(PERF_GUARD_ENV):
        assert overhead <= MAX_FAULTS_OVERHEAD, (
            f"a disabled fault plan slowed the kernel by {overhead:.1%} "
            f"(budget {MAX_FAULTS_OVERHEAD:.0%}); the no-fault path must "
            "stay free"
        )
