"""Wall-clock benchmark of the parallel runtime + calibration cache.

Times the Figure 8 comparison harness (all five scenarios) three ways —
serial without caching (the pre-runtime behaviour), fanned across all cores,
and re-run against a warm cache — and records the results in
``BENCH_runtime.json`` at the repository root.  Also verifies that a cached
re-calibration of the Figure 10 production model skips every duplicate
single-machine simulation.
"""

from __future__ import annotations

import json
import os
import time

from conftest import DURATION, SEED, WARMUP

from repro.cluster.largescale import ProductionClusterSimulation
from repro.experiments import figures
from repro.runtime import ExperimentRunner, ResultCache

_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_runtime.json"
)


def _timed_fig8(runner):
    start = time.perf_counter()
    figure = figures.fig8_comparison(
        duration=DURATION, warmup=WARMUP, seed=SEED, runner=runner
    )
    return time.perf_counter() - start, figure


def test_runtime_speedup_and_cache():
    cores = os.cpu_count() or 1

    serial_seconds, serial_figure = _timed_fig8(
        ExperimentRunner(max_workers=1, cache=ResultCache(), use_cache=False)
    )

    cache = ResultCache()
    parallel_runner = ExperimentRunner(max_workers=cores, cache=cache)
    parallel_seconds, parallel_figure = _timed_fig8(parallel_runner)
    stores_after_cold = cache.stores

    cached_seconds, cached_figure = _timed_fig8(parallel_runner)

    # Correctness first: all three executions produce identical rows.
    assert parallel_figure.rows == serial_figure.rows
    assert cached_figure.rows == serial_figure.rows
    # The warm run simulated nothing.
    assert cache.stores == stores_after_cold

    speedup_parallel = serial_seconds / parallel_seconds
    speedup_cached = serial_seconds / cached_seconds
    # The cache alone guarantees the headline >= 2x.  The cold parallel
    # speedup depends on how loaded the runner is, so it is recorded in the
    # JSON rather than asserted — gating CI on wall-clock parallelism flakes
    # on contended shared runners.
    assert speedup_cached >= 2.0

    # Figure 10 calibration: a second calibration (fresh instance, shared
    # cache) must skip every duplicate single-machine simulation.
    calibration_cache = ResultCache()
    calibration_runner = ExperimentRunner(max_workers=cores, cache=calibration_cache)

    def _calibrate():
        simulation = ProductionClusterSimulation(
            calibration_qps=(1200.0, 2400.0),
            calibration_duration=1.0,
            calibration_warmup=0.2,
            seed=SEED,
            runner=calibration_runner,
        )
        start = time.perf_counter()
        points = simulation.calibrate()
        return time.perf_counter() - start, points

    cold_calibration_seconds, cold_points = _calibrate()
    stores_after_calibration = calibration_cache.stores
    warm_calibration_seconds, warm_points = _calibrate()
    assert calibration_cache.stores == stores_after_calibration
    assert len(warm_points) == len(cold_points)
    assert all(
        (w.latency_samples == c.latency_samples).all()
        for w, c in zip(warm_points, cold_points)
    )
    assert warm_calibration_seconds < cold_calibration_seconds

    record = {
        "benchmark": "fig8_comparison (5 scenarios) + fig10 calibration",
        "duration_simulated_s": DURATION,
        "warmup_simulated_s": WARMUP,
        "seed": SEED,
        "cpu_count": cores,
        "fig8_serial_uncached_s": round(serial_seconds, 3),
        "fig8_parallel_cold_s": round(parallel_seconds, 3),
        "fig8_cached_s": round(cached_seconds, 4),
        "speedup_parallel_cold": round(speedup_parallel, 2),
        "speedup_cached": round(speedup_cached, 1),
        "calibration_cold_s": round(cold_calibration_seconds, 3),
        "calibration_cached_s": round(warm_calibration_seconds, 4),
        "cache_entries": len(cache),
    }
    if cores == 1:
        # A ~1.0x "parallel" speedup on a single-core runner is expected, not
        # a runtime defect — say so in the record instead of letting the
        # number mislead.
        record["parallelism_limited_by_cpu_count"] = (
            "cpu_count is 1: the parallel run degenerates to the serial path, "
            "so speedup_parallel_cold carries no signal on this machine"
        )
    from repro.reporting.bench import merge_bench_record

    # The cpu_count note is owned even when unwritten, so it goes away on a
    # multi-CPU run instead of contradicting the cpu_count beside it.
    record = merge_bench_record(
        _BENCH_PATH, record, owned=(*record, "parallelism_limited_by_cpu_count")
    )
    print(f"\nBENCH_runtime: {json.dumps(record, indent=2)}")