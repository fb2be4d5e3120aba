"""Wall-clock benchmark of the sharded fleet simulation.

Runs the canonical heterogeneous fleet three ways — serial, fanned across
all cores, and re-run against the warm cache — verifies the three produce
byte-identical accounting, and records throughput (machine-buckets simulated
per second), the shard speedup and the warm-run cache hit rate in
``BENCH_fleet.json`` at the repository root, alongside ``BENCH_runtime.json``.

A second benchmark runs the 50,000-machine hyperscale scenario (sampled
mode) and records its throughput in the same JSON under ``hyperscale_*``
keys.  When ``REPRO_PERF_GUARD`` is set (the nightly CI job sets it), both
throughputs are checked against the *committed* ``BENCH_fleet.json`` and the
test fails on a regression of more than 25 % — if a slowdown is intentional,
re-run the benchmarks and commit the refreshed artifact.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments.reporting import rows_to_json
from repro.fleet.scenarios import default_fleet_spec, fleet_hyperscale
from repro.fleet.simulate import FleetSimulation
from repro.runtime import ExperimentRunner, ResultCache

_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_fleet.json"
)

#: Environment variable enabling the regression guard against the committed
#: BENCH_fleet.json (set by the nightly CI job).
PERF_GUARD_ENV = "REPRO_PERF_GUARD"

#: Maximum tolerated throughput regression before the guard fails the test.
MAX_REGRESSION = 0.25

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


def _read_committed():
    if not os.path.isfile(_BENCH_PATH):
        return None
    with open(_BENCH_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_record(updates):
    """Merge this run's measurements into the committed record.

    Goes through the shared merge tool so the write is schema-validated and
    keys another benchmark owns (e.g. the hyperscale fields) survive.
    """
    from repro.reporting.bench import merge_bench_record

    return merge_bench_record(_BENCH_PATH, updates)


def _guard(committed, key, measured):
    if not os.environ.get(PERF_GUARD_ENV) or committed is None or key not in committed:
        return
    floor = committed[key] * (1.0 - MAX_REGRESSION)
    assert measured >= floor, (
        f"fleet throughput regressed: {key} {measured:.1f} is below {floor:.1f} "
        f"(committed {committed[key]:.1f} minus the {MAX_REGRESSION:.0%} "
        "tolerance); if the slowdown is intentional, re-run this benchmark "
        "and commit the new BENCH_fleet.json"
    )


def test_fleet_scale_benchmark():
    cores = os.cpu_count() or 1
    committed = _read_committed()

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

    machine_buckets = parallel.machine_buckets
    record = _write_record(
        {
            "benchmark": f"fleet staged rollout ({MACHINES} machines, {STAGES} stages)",
            "machines": MACHINES,
            "machine_buckets": machine_buckets,
            "cpu_count": cores,
            "serial_s": round(serial_seconds, 3),
            "parallel_cold_s": round(parallel_seconds, 3),
            "warm_cached_s": round(warm_seconds, 4),
            "shard_speedup": round(serial_seconds / parallel_seconds, 2),
            "cached_speedup": round(serial_seconds / warm_seconds, 1),
            "machines_per_s_parallel": round(MACHINES / parallel_seconds, 1),
            "machine_buckets_per_s_parallel": round(machine_buckets / parallel_seconds, 1),
            "warm_cache_hit_rate": round(hit_rate, 4),
            "reclaimed_core_hours": serial.summary()["reclaimed_core_hours"],
        }
    )
    print(f"\nBENCH_fleet: {json.dumps(record, indent=2)}")

    _guard(committed, "machines_per_s_parallel", MACHINES / parallel_seconds)


def test_fleet_hyperscale_benchmark():
    """The 50k-machine sampled-mode staged rollout, end to end.

    One cold all-cores run (calibration included): sampled hyperscale mode
    must push a three-stage diurnal rollout across 50,000 machines at
    >= 2,500 machines per wall-clock second — an order of magnitude beyond
    what exact mode sustains — while still completing every stage.
    """
    cores = os.cpu_count() or 1
    committed = _read_committed()

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

    record = _write_record(
        {
            "hyperscale_machines": HYPERSCALE_MACHINES,
            "hyperscale_sample_fraction": spec.sample_fraction,
            "hyperscale_cpu_count": cores,
            "hyperscale_wall_s": round(wall_seconds, 3),
            "hyperscale_machines_per_s": round(machines_per_s, 1),
            "hyperscale_machine_buckets": result.machine_buckets,
            "hyperscale_reclaimed_core_hours": round(result.reclaimed_core_hours, 1),
        }
    )
    print(f"\nBENCH_fleet (hyperscale): {json.dumps(record, indent=2)}")

    _guard(committed, "hyperscale_machines_per_s", machines_per_s)
