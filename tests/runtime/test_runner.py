"""Unit tests for the parallel experiment runtime."""

import dataclasses
import json

import numpy as np
import pytest

from repro.config.schema import (
    ClusterScenario,
    ClusterSpec,
    CpuBullySpec,
    DiskBullySpec,
    ExperimentSpec,
    FaultPlanSpec,
    HdfsSpec,
    MlTrainingSpec,
    PerfIsoSpec,
)
from repro.experiments import scenarios
from repro.runtime import (
    ExperimentRunner,
    ExperimentTask,
    ResultCache,
    spec_hash,
    versioned_namespace,
)
from repro.runtime import runner as runner_module
from repro.runtime.spec_hash import canonical_encoding


def tiny_spec(seed=5, qps=300.0):
    return scenarios.standalone(qps=qps, duration=0.4, warmup=0.1, seed=seed)


def tiny_cluster(seed=5):
    """Two IndexServe machines in one row behind one TLA, for a quarter second."""
    return ClusterScenario(
        cluster=ClusterSpec(partitions=2, rows=1, tla_machines=1),
        node=scenarios.standalone(qps=200.0, duration=0.2, warmup=0.05, seed=seed),
    )


class TestSpecHash:
    def test_equal_specs_hash_identically(self):
        assert spec_hash(tiny_spec()) == spec_hash(tiny_spec())

    def test_any_field_change_changes_hash(self):
        base = tiny_spec()
        assert spec_hash(base) != spec_hash(dataclasses.replace(base, seed=6))
        assert spec_hash(base) != spec_hash(
            dataclasses.replace(base, workload=dataclasses.replace(base.workload, qps=301.0))
        )

    def test_namespace_separates_keys(self):
        assert spec_hash(tiny_spec(), namespace="a") != spec_hash(tiny_spec(), namespace="b")

    def test_hash_is_hex_digest(self):
        digest = spec_hash(tiny_spec())
        assert len(digest) == 64
        int(digest, 16)

    def test_non_experiment_dataclasses_hash_too(self):
        assert spec_hash(ClusterSpec()) == spec_hash(ClusterSpec())
        assert spec_hash(ClusterSpec()) != spec_hash(ClusterSpec(partitions=3))

    def test_dict_keys_keep_their_type(self):
        assert spec_hash({1: "a"}) != spec_hash({"1": "a"})
        assert spec_hash({1: "a", 2: "b"}) == spec_hash({2: "b", 1: "a"})

    def test_frozensets_of_encoded_items_hash(self):
        assert spec_hash(frozenset({1.5, 2.5})) == spec_hash(frozenset({2.5, 1.5}))
        assert spec_hash(frozenset({1.5})) != spec_hash(frozenset({2.5}))

    def test_second_hash_of_same_spec_hits_the_memo(self, monkeypatch):
        import importlib

        # The package re-exports the spec_hash *function* under the same
        # name, so the module itself must be fetched explicitly.
        spec_hash_module = importlib.import_module("repro.runtime.spec_hash")

        spec = tiny_spec()
        first = spec_hash(spec)
        # After the first hash the digest is memoised on the instance...
        memo = getattr(spec, spec_hash_module._MEMO_ATTR)
        assert memo[""] == first

        # ...and the second hash returns without re-encoding the spec.
        def _boom(*_args, **_kwargs):
            raise AssertionError("memoised hash must not re-encode the spec")

        monkeypatch.setattr(spec_hash_module, "canonical_encoding", _boom)
        assert spec_hash(spec) == first

    def test_memo_is_per_namespace_and_not_inherited_by_replace(self):
        spec = tiny_spec()
        assert spec_hash(spec, namespace="a") != spec_hash(spec, namespace="b")
        # Same answers again, now served from the memo.
        assert spec_hash(spec, namespace="a") == spec_hash(tiny_spec(), namespace="a")
        derived = dataclasses.replace(spec, seed=6)
        assert spec_hash(derived) != spec_hash(spec)

    def test_numpy_scalars_hash_like_python_equivalents(self):
        """Specs built from numpy-driven sweeps must hit the same cache keys."""
        from_python = tiny_spec(qps=300.0)
        from_numpy = tiny_spec(qps=np.float64(300.0))
        assert from_python == from_numpy
        assert spec_hash(from_python) == spec_hash(from_numpy)
        assert spec_hash(ClusterSpec(partitions=np.int64(3))) == spec_hash(
            ClusterSpec(partitions=3)
        )

    def test_unset_fields_are_not_encoded(self):
        spec = ExperimentSpec()
        encoded = json.loads(canonical_encoding(spec))["spec"]["fields"]
        unset = {f.name for f in dataclasses.fields(spec) if getattr(spec, f.name) is None}
        assert unset and not unset & set(encoded)
        workload = encoded["workload"]["fields"]
        assert not {"diurnal", "bursty", "flash_crowd", "trace"} & set(workload)

    def test_setting_any_optional_field_changes_the_hash(self):
        base = ExperimentSpec()
        values = {
            "perfiso": PerfIsoSpec(),
            "cpu_bully": CpuBullySpec(),
            "disk_bully": DiskBullySpec(),
            "hdfs": HdfsSpec(),
            "ml_training": MlTrainingSpec(),
            "faults": FaultPlanSpec(),
        }
        assert set(values) == {
            f.name for f in dataclasses.fields(base) if getattr(base, f.name) is None
        }
        hashes = {spec_hash(base)} | {
            spec_hash(dataclasses.replace(base, **{name: value}))
            for name, value in values.items()
        }
        assert len(hashes) == len(values) + 1


class TestResultCache:
    def test_memory_round_trip(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_disk_round_trip(self, tmp_path):
        first = ResultCache(directory=tmp_path)
        first.put("deadbeef", [1.0, 2.0])
        # A different process would start with an empty memory layer.
        second = ResultCache(directory=tmp_path)
        assert second.get("deadbeef") == [1.0, 2.0]
        assert (tmp_path / "deadbeef.pkl").is_file()

    def test_clear_keeps_disk_layer(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", 42)
        cache.clear()
        assert cache.get("k") == 42

    def test_disk_write_failure_degrades_to_memory_only(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        # An unpicklable payload cannot reach the disk layer, but the store
        # itself must succeed via the memory layer.
        unpicklable = lambda: None  # noqa: E731 - locals don't pickle
        cache.put("k", unpicklable)
        assert cache.get("k") is unpicklable
        assert not (tmp_path / "k.pkl").exists()

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "badkey.pkl").write_bytes(b"not a pickle")
        cache = ResultCache(directory=tmp_path)
        assert cache.get("badkey") is None
        assert cache.misses == 1
        # The torn file was dropped so a recompute can overwrite it.
        assert not (tmp_path / "badkey.pkl").exists()
        cache.put("badkey", 7)
        assert ResultCache(directory=tmp_path).get("badkey") == 7


class TestExperimentRunner:
    def test_results_in_task_order_with_labels(self):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        tasks = [
            ExperimentTask(tiny_spec(seed=5), "first"),
            ExperimentTask(tiny_spec(seed=6), "second"),
        ]
        outcomes = runner.run_batch(tasks)
        assert [o.result.scenario for o in outcomes] == ["first", "second"]

    def test_identical_specs_in_batch_run_once(self):
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=1, cache=cache)
        tasks = [ExperimentTask(tiny_spec(), f"label-{i}") for i in range(4)]
        outcomes = runner.run_batch(tasks)
        # One simulation, one store; all four outcomes share the payload.
        assert cache.stores == 1
        assert len({o.key for o in outcomes}) == 1
        assert [o.result.scenario for o in outcomes] == [f"label-{i}" for i in range(4)]
        p99s = {o.result.latency.p99 for o in outcomes}
        assert len(p99s) == 1

    def test_second_batch_served_from_cache(self):
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=1, cache=cache)
        first = runner.run_batch([ExperimentTask(tiny_spec(), "cold")])
        second = runner.run_batch([ExperimentTask(tiny_spec(), "warm")])
        assert not first[0].from_cache
        assert second[0].from_cache
        assert second[0].result.scenario == "warm"
        assert second[0].result.latency == first[0].result.latency
        assert np.array_equal(second[0].latency_samples, first[0].latency_samples)

    def test_cache_hits_never_alias_the_stored_payload(self):
        """Mutating an outcome must not poison later hits for the same spec."""
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=1, cache=cache)
        first = runner.run_batch([ExperimentTask(tiny_spec(), "a")])[0]
        pristine = first.latency_samples.copy()
        pristine_history = list(first.result.secondary_core_history)
        first.latency_samples[:] = -1.0
        first.result.secondary_core_history.append(-1)
        first.result.extra["poison"] = 1.0
        second = runner.run_batch([ExperimentTask(tiny_spec(), "b")])[0]
        assert second.from_cache
        assert np.array_equal(second.latency_samples, pristine)
        assert list(second.result.secondary_core_history) == pristine_history
        assert "poison" not in second.result.extra

    def test_use_cache_false_always_recomputes(self):
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=1, cache=cache, use_cache=False)
        runner.run_batch([ExperimentTask(tiny_spec(), "a")])
        outcome = runner.run_batch([ExperimentTask(tiny_spec(), "b")])[0]
        assert not outcome.from_cache
        assert cache.stores == 0

    def test_run_convenience_wrapper(self):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        result = runner.run(tiny_spec(), scenario="solo")
        assert result.scenario == "solo"
        assert result.queries_completed > 0

    def test_map_preserves_order(self):
        runner = ExperimentRunner(max_workers=2, cache=ResultCache())
        results = runner.map(_square, [(i,) for i in range(8)])
        assert results == [i * i for i in range(8)]

    def test_garbage_worker_env_rejected_with_clear_error(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.runtime.runner import WORKERS_ENV

        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ConfigError, match="REPRO_RUNNER_WORKERS"):
            ExperimentRunner()

    def test_map_keeps_none_results_for_unhashable_args(self):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        results = runner.map(_first_of_pair, [((None, object()),), ((5, object()),)])
        assert results == [None, 5]

    def test_map_without_a_namespace_never_hashes(self, monkeypatch):
        monkeypatch.setattr(runner_module, "spec_hash", _forbidden_hash)
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=2, cache=cache)
        results = runner.map(_record_call, [(4,), (4,), (5,)])
        assert [value for value, _ in results] == [16, 16, 25]
        # Nothing touched the cache, and equal payloads came back as distinct
        # objects: mutating one leaves the other alone.
        assert cache.stores == cache.hits == cache.misses == 0
        results[0].append("mutated")
        assert len(results[1]) == 2

    def test_use_cache_false_map_runs_every_payload_unhashed(self, monkeypatch):
        monkeypatch.setattr(runner_module, "spec_hash", _forbidden_hash)
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=1, cache=cache, use_cache=False)
        results = runner.map(_record_call, [(4,), (4,)])
        # Two computations (distinct markers), and nothing touched the cache.
        assert len({marker for _, marker in results}) == 2
        assert cache.stores == cache.hits == cache.misses == 0

    def test_namespaces_carry_the_source_digest(self):
        """Every namespace carries the digest of the package's sources."""
        from repro.runtime.spec_hash import source_digest

        assert versioned_namespace("single-machine") == f"single-machine/{source_digest()}"
        assert spec_hash(tiny_spec(), namespace=versioned_namespace("a")) != spec_hash(
            tiny_spec(), namespace="a/v0.0.0"
        )


class TestClusterBatches:
    """A ``ClusterScenario`` runs through ``run_batch`` like a single machine:
    keyed in its own namespace, deduplicated, cached and copied on the way out."""

    def test_cluster_batch_served_from_cache(self):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        first = runner.run_batch([ExperimentTask(tiny_cluster(), "cold")])[0]
        second = runner.run_batch([ExperimentTask(tiny_cluster(), "warm")])[0]
        assert not first.from_cache and second.from_cache
        assert first.key == spec_hash(tiny_cluster(), namespace=versioned_namespace("cluster"))
        assert second.result.scenario == "warm"
        assert second.result.summary() == first.result.summary()
        # Only calibration reads samples, and it runs single machines.
        assert first.latency_samples.size == second.latency_samples.size == 0

    def test_identical_cluster_tasks_simulated_once(self):
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=2, cache=cache)
        tasks = [ExperimentTask(tiny_cluster(), f"label-{i}") for i in range(3)]
        tasks.append(ExperimentTask(tiny_cluster(seed=6), "other-seed"))
        outcomes = runner.run_batch(tasks)
        assert cache.stores == 2
        assert len({o.key for o in outcomes}) == 2
        assert [o.result.scenario for o in outcomes] == [
            "label-0", "label-1", "label-2", "other-seed"
        ]
        assert outcomes[0].result.summary() == outcomes[2].result.summary()
        assert outcomes[0].result.summary() != outcomes[3].result.summary()

    def test_cluster_cache_hits_never_alias_the_stored_payload(self):
        """Mutating an outcome must not poison later hits for the same scenario."""
        runner = ExperimentRunner(max_workers=1, cache=ResultCache())
        first = runner.run_batch([ExperimentTask(tiny_cluster(), "a")])[0]
        pristine = first.result.summary()
        completed = first.result.requests_completed
        first.result.requests_completed = -1
        first.result.cpu = None
        second = runner.run_batch([ExperimentTask(tiny_cluster(), "b")])[0]
        assert second.from_cache
        assert second.result.requests_completed == completed
        assert second.result.summary() == pristine


def _forbidden_hash(*_args, **_kwargs):
    raise AssertionError("this map must not compute cache keys")


def _square(value):
    return value * value


def _first_of_pair(pair):
    return pair[0]


_calls = iter(range(1_000_000))


def _record_call(value):
    """Returns [result, unique-marker] so tests can count real computations."""
    return [value * value, next(_calls)]