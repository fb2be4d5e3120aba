"""Crash-hardened runtime: pool-failure retries, the pool's lifetime and
cache quarantine.

Failing-before regressions for the robustness PR: a worker process dying
mid-batch (OOM-killed, segfaulted numpy, container eviction) used to
propagate ``BrokenProcessPool`` out of ``ExperimentRunner.map`` and kill the
whole experiment; a corrupt disk-cache entry was deleted and silently
re-written, so a flaky filesystem could loop forever re-reading bad bytes.
Now the pool is rebuilt with capped exponential backoff (degrading to serial
execution as the last resort) and corrupt entries are quarantined on disk —
renamed, never re-read, preserved for post-mortems.

A fleet run is one runner scope: its calibration and every stage share one
pool, whose workers are joined before the run returns or raises.
"""

import multiprocessing
import pickle

import pytest
from concurrent.futures.process import BrokenProcessPool

import repro.runtime.runner as runner_module
from repro.errors import ExperimentError
from repro.experiments import scenarios
from repro.fleet.simulate import FleetSimulation
from repro.reporting.rows import rows_to_json
from repro.runtime import ExperimentRunner, ExperimentTask, ResultCache
from repro.runtime.spec_hash import spec_hash, versioned_namespace

from fleet_testing import make_tiny_fleet_spec

#: Captured before any monkeypatching so FlakyPoolFactory can build real pools.
REAL_PROCESS_POOL = runner_module.ProcessPoolExecutor


def tiny_spec(seed=5):
    return scenarios.standalone(qps=300.0, duration=0.4, warmup=0.1, seed=seed)


def entry_path(directory, spec):
    return directory / (
        spec_hash(spec, namespace=versioned_namespace("single-machine")) + ".pkl"
    )


class AlwaysBrokenPool:
    """A drop-in ProcessPoolExecutor whose every map() dies like a crashed
    worker."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize=1):
        raise BrokenProcessPool("a child process terminated abruptly")


class FlakyPoolFactory:
    """Breaks the first ``failures`` pools, then builds real ones."""

    def __init__(self, failures):
        self.remaining = failures
        self.built = 0

    def __call__(self, *args, **kwargs):
        self.built += 1
        if self.remaining > 0:
            self.remaining -= 1
            return AlwaysBrokenPool()
        return REAL_PROCESS_POOL(*args, **kwargs)


class TestPoolCrashRecovery:
    def run_tasks(self, monkeypatch, factory, workers=2, tasks=2):
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", factory)
        runner = ExperimentRunner(max_workers=workers, cache=ResultCache())
        runner.POOL_BACKOFF_BASE = 0.0  # no real sleeping in tests
        specs = [tiny_spec(seed=seed) for seed in range(1, tasks + 1)]
        outcomes = runner.run_batch([ExperimentTask(spec) for spec in specs])
        return runner, outcomes

    def test_batch_survives_total_pool_loss(self, monkeypatch):
        """Every pool attempt dies; the batch still completes serially."""
        runner, outcomes = self.run_tasks(monkeypatch, AlwaysBrokenPool)
        assert len(outcomes) == 2
        assert all(outcome.result.queries_completed > 0 for outcome in outcomes)
        assert runner.pool_failures == runner.POOL_ATTEMPTS

    def test_transient_pool_crash_is_retried(self, monkeypatch):
        factory = FlakyPoolFactory(failures=1)
        runner, outcomes = self.run_tasks(monkeypatch, factory)
        assert len(outcomes) == 2
        assert runner.pool_failures == 1
        assert factory.built == 2  # one broken pool, one healthy retry

    def test_degraded_results_match_healthy_ones(self, monkeypatch):
        healthy = ExperimentRunner(max_workers=1, cache=ResultCache()).run_batch(
            [ExperimentTask(tiny_spec(seed=1))]
        )[0]
        _, outcomes = self.run_tasks(monkeypatch, AlwaysBrokenPool, tasks=1)
        assert outcomes[0].result.summary() == healthy.result.summary()


def small_sampled_fleet(**overrides):
    return make_tiny_fleet_spec(
        machines=600, sample_fraction=0.25, min_sampled_machines=128, **overrides
    )


def live_workers():
    """The child processes alive now; each is then given 10 s to exit, so a
    leaked worker fails the test instead of outliving it."""
    alive = multiprocessing.active_children()
    for child in alive:
        child.join(timeout=10.0)
    return alive


class TestOnePoolPerFleetRun:
    @pytest.fixture(scope="class")
    def cold_run(self):
        """A cold 2-worker sampled fleet run with every pool and fan-out
        counted: (pools built, batch size per fan-out, workers alive after)."""
        factory = FlakyPoolFactory(failures=0)
        runner = ExperimentRunner(max_workers=2, cache=ResultCache())
        fan_outs = []
        fan_out = runner._fan_out

        def counting_fan_out(fn, payloads):
            fan_outs.append(len(payloads))
            return fan_out(fn, payloads)

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(runner_module, "ProcessPoolExecutor", factory)
            patcher.setattr(runner, "_fan_out", counting_fan_out)
            FleetSimulation(small_sampled_fleet(), runner=runner).run()
            alive = live_workers()
        return factory.built, fan_outs, alive

    def test_calibration_and_every_stage_share_one_pool(self, cold_run):
        built, fan_outs, _ = cold_run
        # Calibration, the bake and two stages: four parallel fan-outs.
        assert len(fan_outs) == 4 and min(fan_outs) > 1
        assert built == 1

    def test_no_worker_outlives_the_run(self, cold_run):
        _, _, alive = cold_run
        assert alive == []

    def test_no_worker_outlives_a_run_that_raises(self, monkeypatch):
        factory = FlakyPoolFactory(failures=0)
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", factory)
        spec = make_tiny_fleet_spec(
            calibration_qps=(0.5, 1.0), calibration_duration=0.2, calibration_warmup=0.1
        )
        runner = ExperimentRunner(max_workers=2, cache=ResultCache())
        with pytest.raises(ExperimentError, match="produced no latency samples"):
            FleetSimulation(spec, runner=runner).run()
        assert factory.built == 1  # the calibration ran on a pool
        assert live_workers() == []

    def test_batches_outside_a_scope_build_a_pool_each(self, monkeypatch):
        factory = FlakyPoolFactory(failures=0)
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", factory)
        runner = ExperimentRunner(max_workers=2, cache=ResultCache())
        for seeds in ((1, 2), (3, 4)):
            runner.run_batch([ExperimentTask(tiny_spec(seed=seed)) for seed in seeds])
        assert factory.built == 2
        assert live_workers() == []
        with runner.scope():
            for seeds in ((5, 6), (7, 8)):
                runner.run_batch([ExperimentTask(tiny_spec(seed=seed)) for seed in seeds])
        assert factory.built == 3
        assert live_workers() == []

    def test_a_broken_pool_is_rebuilt_inside_the_run(self, monkeypatch):
        cache = ResultCache()
        serial = FleetSimulation(
            small_sampled_fleet(), runner=ExperimentRunner(max_workers=1, cache=cache)
        ).run()
        factory = FlakyPoolFactory(failures=1)
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", factory)
        runner = ExperimentRunner(max_workers=2, cache=cache)
        runner.POOL_BACKOFF_BASE = 0.0
        flaky = FleetSimulation(small_sampled_fleet(), runner=runner).run()
        assert runner.pool_failures == 1
        assert factory.built == 2  # the broken pool and its one replacement
        assert rows_to_json(flaky.rows()) == rows_to_json(serial.rows())
        assert live_workers() == []


class TestCacheQuarantine:
    def seeded_cache(self, tmp_path):
        runner = ExperimentRunner(
            max_workers=1, cache=ResultCache(directory=tmp_path)
        )
        spec = tiny_spec()
        runner.run_batch([ExperimentTask(spec)])
        return spec, entry_path(tmp_path, spec)

    def test_corrupt_entry_quarantined_not_deleted(self, tmp_path):
        spec, path = self.seeded_cache(tmp_path)
        path.write_bytes(b"not a pickle at all")
        cache = ResultCache(directory=tmp_path)
        assert cache.get(path.stem) is None
        assert cache.quarantined == 1
        corpse = path.with_name(path.name + ".corrupt")
        assert not path.exists()
        assert corpse.read_bytes() == b"not a pickle at all"  # evidence kept

    def test_quarantined_entry_is_never_re_read(self, tmp_path):
        spec, path = self.seeded_cache(tmp_path)
        path.write_bytes(b"junk")
        cache = ResultCache(directory=tmp_path)
        assert cache.get(path.stem) is None
        assert cache.get(path.stem) is None  # second read: plain miss
        assert cache.quarantined == 1  # quarantined exactly once

    def test_recompute_overwrites_cleanly_after_quarantine(self, tmp_path):
        spec, path = self.seeded_cache(tmp_path)
        path.write_bytes(b"junk")
        runner = ExperimentRunner(
            max_workers=1, cache=ResultCache(directory=tmp_path)
        )
        outcome = runner.run_batch([ExperimentTask(spec)])[0]
        assert not outcome.from_cache
        with path.open("rb") as handle:
            pickle.load(handle)  # the fresh entry is healthy
        assert path.with_name(path.name + ".corrupt").exists()
        # And the healthy rewrite is a hit for the next process.
        assert ResultCache(directory=tmp_path).get(path.stem) is not None

    def test_quarantined_files_invisible_to_eviction_scan(self, tmp_path):
        spec, path = self.seeded_cache(tmp_path)
        path.write_bytes(b"junk")
        cache = ResultCache(directory=tmp_path)
        cache.get(path.stem)
        # A tiny cap plus fresh entries: the .corrupt corpse neither counts
        # against the cap nor gets evicted.
        capped = ResultCache(directory=tmp_path, max_entries=1)
        capped.put("fresh-entry", {"ok": True})
        assert path.with_name(path.name + ".corrupt").exists()
