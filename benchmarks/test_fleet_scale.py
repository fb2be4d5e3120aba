"""Wall-clock benchmark of the sharded fleet simulation.

Runs the canonical heterogeneous fleet three ways — serial, fanned across
all cores, and re-run against the warm cache — and verifies that the three
produce byte-identical accounting and that the warm run's calibrations come
from the cache.  A second benchmark runs the 50,000-machine hyperscale
scenario (sampled mode) end to end against a hard throughput floor.

When ``REPRO_PERF_GUARD`` is set (the nightly CI job sets it), both
throughputs must also stay within :data:`MAX_REGRESSION` of
:data:`BASELINE_MACHINES_PER_S_PARALLEL` and
:data:`BASELINE_HYPERSCALE_MACHINES_PER_S`.  Re-baselining either constant
from a nightly measurement is a deliberate change of its own, never a way
to make a slow run pass.
"""

from __future__ import annotations

import os
import time

from repro.fleet.scenarios import default_fleet_spec, fleet_hyperscale
from repro.fleet.simulate import FleetSimulation
from repro.reporting.rows import rows_to_json
from repro.runtime import ExperimentRunner, ResultCache

#: Environment variable enabling the perf guards (set by the nightly CI job).
PERF_GUARD_ENV = "REPRO_PERF_GUARD"

#: Maximum tolerated throughput regression before the guard fails the test.
MAX_REGRESSION = 0.25

#: Throughputs (machines/s) the guards' floors are taken from: the cold
#: all-cores 600-machine run and the cold 50,000-machine hyperscale run, as
#: this benchmark recorded them at commit 39628e4 on a 2-CPU container.
BASELINE_MACHINES_PER_S_PARALLEL = 371.3
BASELINE_HYPERSCALE_MACHINES_PER_S = 14_600.6

#: Big enough to exercise sharding (several shards per group), small enough
#: for a nightly benchmark: the calibration dominates the cold runs.
MACHINES = 600
STAGES = 3

#: The hyperscale scenario's fleet size and its throughput acceptance floor
#: (machines simulated per second of wall clock, staged rollout end to end).
HYPERSCALE_MACHINES = 50_000
HYPERSCALE_MIN_MACHINES_PER_S = 2_500.0


def _spec():
    return default_fleet_spec(
        machines=MACHINES,
        stages=STAGES,
        seed=1,
        calibration_qps=(1200.0, 2400.0),
        calibration_duration=1.0,
        calibration_warmup=0.2,
        bake_buckets=3,
        stage_buckets=3,
        samples_per_machine_bucket=32,
    ).replace(shard_machines=64)


def _timed_run(runner):
    start = time.perf_counter()
    result = FleetSimulation(_spec(), runner=runner).run()
    return time.perf_counter() - start, result


def _guard(baseline, measured):
    if not os.environ.get(PERF_GUARD_ENV):
        return
    floor = baseline * (1.0 - MAX_REGRESSION)
    assert measured >= floor, (
        f"fleet throughput regressed: {measured:.1f} machines/s is below "
        f"{floor:.1f} (baseline {baseline:.1f} minus the {MAX_REGRESSION:.0%} "
        "tolerance)"
    )


def test_fleet_scale_benchmark():
    cores = os.cpu_count() or 1

    serial_seconds, serial = _timed_run(
        ExperimentRunner(max_workers=1, cache=ResultCache())
    )

    cache = ResultCache()
    parallel_runner = ExperimentRunner(max_workers=cores, cache=cache)
    parallel_seconds, parallel = _timed_run(parallel_runner)

    hits_before, misses_before = cache.hits, cache.misses
    warm_seconds, warm = _timed_run(parallel_runner)
    warm_hits = cache.hits - hits_before
    warm_misses = cache.misses - misses_before

    # Correctness first: all three executions are byte-identical.
    assert rows_to_json(serial.rows()) == rows_to_json(parallel.rows())
    assert rows_to_json(serial.rows()) == rows_to_json(warm.rows())
    assert serial.status == "completed"

    # The warm run's calibrations must come from the cache (shards are
    # recomputed on every run; they are cheaper to sample than to key).
    hit_rate = warm_hits / max(1, warm_hits + warm_misses)
    assert hit_rate > 0.9
    assert warm_seconds < serial_seconds

    machines_per_s = MACHINES / parallel_seconds
    print(
        f"\nfleet: serial {serial_seconds:.3f} s, parallel {parallel_seconds:.3f} s "
        f"({machines_per_s:.1f} machines/s), warm {warm_seconds:.4f} s"
    )
    _guard(BASELINE_MACHINES_PER_S_PARALLEL, machines_per_s)


def test_fleet_hyperscale_benchmark():
    """The 50k-machine sampled-mode staged rollout, end to end.

    One cold all-cores run (calibration included): sampled hyperscale mode
    must push a three-stage diurnal rollout across 50,000 machines at
    >= 2,500 machines per wall-clock second — an order of magnitude beyond
    what exact mode sustains — while still completing every stage.
    """
    cores = os.cpu_count() or 1

    spec = fleet_hyperscale(machines=HYPERSCALE_MACHINES)
    runner = ExperimentRunner(max_workers=cores, cache=ResultCache())
    start = time.perf_counter()
    result = FleetSimulation(spec, runner=runner).run()
    wall_seconds = time.perf_counter() - start

    assert result.status == "completed"
    assert result.stages_completed == result.stages_total
    machines_per_s = HYPERSCALE_MACHINES / wall_seconds
    assert machines_per_s >= HYPERSCALE_MIN_MACHINES_PER_S, (
        f"hyperscale throughput {machines_per_s:.0f} machines/s is below the "
        f"{HYPERSCALE_MIN_MACHINES_PER_S:.0f} floor"
    )

    print(f"\nhyperscale: {wall_seconds:.3f} s, {machines_per_s:.1f} machines/s")
    _guard(BASELINE_HYPERSCALE_MACHINES_PER_S, machines_per_s)
