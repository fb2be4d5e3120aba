"""Wall-clock benchmark of the parallel runtime + calibration cache.

Runs the Figure 8 comparison harness (all five scenarios) three ways —
serial without caching (the pre-runtime behaviour), fanned across all cores,
and re-run against a warm cache — and checks that all three produce the
same rows and that the warm run simulates nothing and beats the serial one
at least twofold.  Also verifies that a cached re-calibration of the fleet
model skips every duplicate single-machine simulation.
"""

from __future__ import annotations

import os
import time

from conftest import DURATION, SEED, WARMUP

from repro.config.schema import FleetSpec, MachineGroupSpec
from repro.experiments import figures
from repro.fleet.model import FleetModel
from repro.runtime import ExperimentRunner, ResultCache


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
    _, parallel_figure = _timed_fig8(parallel_runner)
    stores_after_cold = cache.stores

    cached_seconds, cached_figure = _timed_fig8(parallel_runner)

    # Correctness first: all three executions produce identical rows.
    assert parallel_figure.rows == serial_figure.rows
    assert cached_figure.rows == serial_figure.rows
    # The warm run simulated nothing.
    assert cache.stores == stores_after_cold

    # The cache alone guarantees the headline >= 2x.  The cold parallel
    # speedup depends on how loaded the runner is, so it is not asserted —
    # gating CI on wall-clock parallelism flakes on contended shared runners.
    assert serial_seconds / cached_seconds >= 2.0

    # Fleet calibration: a second calibration (fresh model, shared cache)
    # must skip every duplicate single-machine simulation.
    calibration_cache = ResultCache()
    calibration_runner = ExperimentRunner(max_workers=cores, cache=calibration_cache)
    fleet = FleetSpec(
        groups=(MachineGroupSpec(name="indexserve"),),
        calibration_qps=(1200.0, 2400.0),
        calibration_duration=1.0,
        calibration_warmup=0.2,
        seed=SEED,
    )

    def _calibrate():
        start = time.perf_counter()
        calibrations = FleetModel(fleet).calibrate(calibration_runner)
        return time.perf_counter() - start, calibrations

    cold_calibration_seconds, cold_calibrations = _calibrate()
    stores_after_calibration = calibration_cache.stores
    warm_calibration_seconds, warm_calibrations = _calibrate()
    assert calibration_cache.stores == stores_after_calibration
    assert warm_calibrations == cold_calibrations
    assert warm_calibration_seconds < cold_calibration_seconds
