"""Persistence tests for the on-disk result cache layer (``REPRO_CACHE_DIR``).

The disk layer must behave like a cache, never like a dependency: reloads are
hits, source changes and corruption are silent misses that fall back to
recomputation, and nothing in this file may crash a run.
"""

import importlib
import os
import pickle
import shutil
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.experiments import scenarios
from repro.runtime import ExperimentRunner, ExperimentTask, ResultCache
from repro.runtime.cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_ENTRIES_ENV,
    default_cache,
    reset_default_cache,
)
from repro.runtime.runner import reset_default_runner
from repro.runtime.spec_hash import spec_hash, versioned_namespace

# The package re-exports the spec_hash *function* under the same name.
spec_hash_module = importlib.import_module("repro.runtime.spec_hash")


def tiny_spec(seed=5):
    return scenarios.standalone(qps=300.0, duration=0.4, warmup=0.1, seed=seed)


def fresh_runner(directory):
    """A runner backed by a brand-new cache object over ``directory`` —
    equivalent to a new process reusing the same cache dir."""
    return ExperimentRunner(max_workers=1, cache=ResultCache(directory=directory))


def entry_path(directory, spec):
    return directory / f"{spec_hash(spec, namespace=versioned_namespace('single-machine'))}.pkl"


class TestReloadHits:
    def test_second_process_reloads_from_disk(self, tmp_path):
        spec = tiny_spec()
        first = fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])
        assert not first[0].from_cache
        assert entry_path(tmp_path, spec).is_file()

        second = fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])
        assert second[0].from_cache
        assert second[0].result.summary() == first[0].result.summary()
        assert (second[0].latency_samples == first[0].latency_samples).all()

    def test_env_variable_wires_default_cache_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        reset_default_cache()
        reset_default_runner()
        try:
            cache = default_cache()
            assert cache.directory == tmp_path
            cache.put("probe", {"v": 1})
            assert (tmp_path / "probe.pkl").is_file()
        finally:
            reset_default_cache()
            reset_default_runner()


class TestVersionStamp:
    """Cache keys follow the code: every namespace carries a digest of the
    package's ``.py`` sources, so a changed simulator never reads old entries."""

    def test_namespace_carries_package_version(self):
        digest = spec_hash_module.source_digest()
        assert len(digest) == 64
        assert versioned_namespace("single-machine") == f"single-machine/{digest}"

    def test_source_byte_change_changes_every_namespace(self, tmp_path, monkeypatch):
        package = Path(repro.__file__).parent
        copy = shutil.copytree(
            package, tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        assert spec_hash_module.package_digest(copy) == spec_hash_module.source_digest()
        source = copy / "simulation" / "engine.py"
        text = source.read_bytes()
        source.write_bytes(text[:-1] + bytes([text[-1] ^ 1]))
        changed = spec_hash_module.package_digest(copy)
        assert changed != spec_hash_module.source_digest()

        tags = ("single-machine", "cluster")
        before = {tag: versioned_namespace(tag) for tag in tags}
        monkeypatch.setattr(spec_hash_module, "source_digest", lambda: changed)
        for tag in tags:
            assert versioned_namespace(tag) != before[tag]

    def test_version_bump_changes_cache_keys(self, monkeypatch):
        spec = tiny_spec()
        old = spec_hash(spec, namespace=versioned_namespace("single-machine"))
        monkeypatch.setattr(spec_hash_module, "source_digest", lambda: "0" * 64)
        new = spec_hash(spec, namespace=versioned_namespace("single-machine"))
        assert old != new

    def test_entries_from_another_version_are_misses(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])
        # A process running changed simulator code computes different keys,
        # so the stale entry is simply never consulted and the run recomputes.
        monkeypatch.setattr(spec_hash_module, "source_digest", lambda: "0" * 64)
        outcome = fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])[0]
        assert not outcome.from_cache


class TestCorruption:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path: path.write_bytes(b""),  # empty file
            lambda path: path.write_bytes(path.read_bytes()[: max(1, path.stat().st_size // 3)]),
            lambda path: path.write_bytes(b"\x80\x05garbage"),  # bad pickle body
            lambda path: path.write_bytes(b"not a pickle at all"),
        ],
        ids=["empty", "truncated", "bad-body", "not-pickle"],
    )
    def test_corrupt_entry_recomputes_instead_of_crashing(self, tmp_path, corrupt):
        spec = tiny_spec()
        baseline = fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])[0]
        path = entry_path(tmp_path, spec)
        corrupt(path)

        outcome = fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])[0]
        assert not outcome.from_cache
        assert outcome.result.summary() == baseline.result.summary()
        # The recompute re-wrote a healthy entry over the corpse.
        with path.open("rb") as handle:
            pickle.load(handle)
        assert fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])[0].from_cache

    def test_unreadable_entry_is_skipped(self, tmp_path):
        spec = tiny_spec()
        fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])
        path = entry_path(tmp_path, spec)
        path.write_bytes(b"junk")
        cache = ResultCache(directory=tmp_path)
        sentinel = object()
        assert cache.get(path.stem, default=sentinel) is sentinel
        assert not path.exists()  # the corpse was removed

    def test_foreign_files_in_cache_dir_are_ignored(self, tmp_path):
        (tmp_path / "README.txt").write_text("not a cache entry")
        spec = tiny_spec()
        outcome = fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])[0]
        assert not outcome.from_cache
        assert fresh_runner(tmp_path).run_batch([ExperimentTask(spec)])[0].from_cache


def _age(path, seconds):
    """Backdate an entry's mtime so LRU ordering is deterministic in tests."""
    stamp = path.stat().st_mtime - seconds
    os.utime(path, (stamp, stamp))


class TestEviction:
    def test_cap_evicts_least_recently_used_entry(self, tmp_path):
        cache = ResultCache(directory=tmp_path, max_entries=2)
        cache.put("a", 1)
        _age(tmp_path / "a.pkl", 30)
        cache.put("b", 2)
        _age(tmp_path / "b.pkl", 20)
        cache.put("c", 3)
        assert sorted(p.stem for p in tmp_path.glob("*.pkl")) == ["b", "c"]
        assert cache.evictions == 1

    def test_disk_hit_refreshes_recency(self, tmp_path):
        seeding = ResultCache(directory=tmp_path, max_entries=2)
        seeding.put("a", 1)
        _age(tmp_path / "a.pkl", 30)
        seeding.put("b", 2)
        _age(tmp_path / "b.pkl", 20)
        # A fresh cache (new process) reads "a" from disk: "a" becomes the
        # most recently used entry, so the next eviction takes "b".
        cache = ResultCache(directory=tmp_path, max_entries=2)
        assert cache.get("a") == 1
        cache.put("c", 3)
        assert sorted(p.stem for p in tmp_path.glob("*.pkl")) == ["a", "c"]

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        assert cache.max_entries is None
        for index in range(20):
            cache.put(f"k{index}", index)
        assert len(list(tmp_path.glob("*.pkl"))) == 20

    def test_env_variable_sets_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "3")
        cache = ResultCache(directory=tmp_path)
        assert cache.max_entries == 3
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "0")
        assert ResultCache(directory=tmp_path).max_entries is None
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "three")
        with pytest.raises(ConfigError):
            ResultCache(directory=tmp_path)
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "-5")
        with pytest.raises(ConfigError):
            ResultCache(directory=tmp_path)

    def test_negative_constructor_cap_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ResultCache(directory=tmp_path, max_entries=-1)

    def test_cap_applies_to_entries_from_previous_processes(self, tmp_path):
        seeding = ResultCache(directory=tmp_path)
        for index in range(4):
            seeding.put(f"k{index}", index)
            _age(tmp_path / f"k{index}.pkl", 40 - index)
        # A fresh capped cache counts the pre-existing entries too.
        capped = ResultCache(directory=tmp_path, max_entries=3)
        capped.put("fresh", 99)
        remaining = sorted(p.stem for p in tmp_path.glob("*.pkl"))
        assert len(remaining) == 3
        assert "fresh" in remaining and "k0" not in remaining

    def test_reload_after_eviction_recomputes_and_readmits(self, tmp_path):
        """The acceptance path: evicted entry -> miss -> recompute -> re-store."""
        first = tiny_spec(seed=5)
        second = tiny_spec(seed=6)

        def capped_runner():
            return ExperimentRunner(
                max_workers=1, cache=ResultCache(directory=tmp_path, max_entries=1)
            )

        baseline = capped_runner().run_batch([ExperimentTask(first)])[0]
        _age(entry_path(tmp_path, first), 30)
        capped_runner().run_batch([ExperimentTask(second)])  # evicts ``first``
        assert not entry_path(tmp_path, first).exists()
        assert entry_path(tmp_path, second).exists()

        # A later process asks for ``first`` again: recomputed, identical,
        # and re-admitted to the disk layer (evicting ``second`` in turn).
        outcome = capped_runner().run_batch([ExperimentTask(first)])[0]
        assert not outcome.from_cache
        assert outcome.result.summary() == baseline.result.summary()
        assert entry_path(tmp_path, first).exists()
        assert not entry_path(tmp_path, second).exists()
        # And the freshly re-admitted entry serves the next reload as a hit.
        assert capped_runner().run_batch([ExperimentTask(first)])[0].from_cache
