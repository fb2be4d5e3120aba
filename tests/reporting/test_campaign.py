"""Campaigns: seed derivation, worker invariance, caching, failure isolation."""

import pytest

from repro.config.schema import CampaignSpec
from repro.errors import ConfigError
from repro.experiments import matrix
from repro.reporting.bundle import load_bundle, validate_bundle
from repro.reporting.campaign import make_campaign, run_campaign, write_campaign_bundle
from repro.runtime import ExperimentRunner, ResultCache, derive_seed, replicate_seeds

FAST = dict(qps=500.0, duration=0.3, warmup=0.1)
GRID = {"bully_threads": (24,)}


def _campaign(replicates=2, base_seed=5, **overrides):
    common = dict(FAST)
    common.update(overrides)
    return make_campaign(
        "no-isolation", replicates=replicates, base_seed=base_seed, grid=GRID, **common
    )


def _runner(workers=1):
    return ExperimentRunner(max_workers=workers, cache=ResultCache())


class TestSeedDerivation:
    def test_replicate_zero_is_the_base_seed(self):
        assert derive_seed(42, 0) == 42
        assert replicate_seeds(42, 3)[0] == 42

    def test_derivation_is_deterministic_and_distinct(self):
        seeds = replicate_seeds(7, 8)
        assert seeds == replicate_seeds(7, 8)
        assert len(set(seeds)) == 8

    def test_different_bases_derive_different_tails(self):
        assert replicate_seeds(1, 4)[1:] != replicate_seeds(2, 4)[1:]

    def test_labels_partition_the_seed_space(self):
        assert derive_seed(1, 1, label="x") != derive_seed(1, 1, label="y")


class TestCampaignSpec:
    def test_defaults_validate(self):
        spec = CampaignSpec(scenario="no-isolation")
        assert spec.replicates == 5 and spec.base_seed == 1

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec(scenario="")
        with pytest.raises(ConfigError):
            CampaignSpec(scenario="s", replicates=0)
        with pytest.raises(ConfigError):
            CampaignSpec(scenario="s", duration=-1.0)


class TestRunCampaign:
    def test_replicates_and_summary(self):
        result = run_campaign(_campaign(), runner=_runner())
        assert len(result.seeds) == 2
        assert result.seeds[0] == 5
        assert len(result.replicates) == 2
        assert result.variant_count == 1
        assert not result.failures
        # Two distinct seeds -> two distinct variant hashes.
        assert len(result.spec_hashes) == 2
        raw = result.raw_rows()
        assert [row["replicate"] for row in raw] == [0, 1]
        assert [row["seed"] for row in raw] == list(result.seeds)
        summary = result.summary_rows()
        assert summary and all(row["n"] == 2 for row in summary)
        # The scenario's axis is an input, not a measured metric.
        assert "bully_threads" not in {row["metric"] for row in summary}

    def test_cluster_scenario_replicates(self):
        spec = make_campaign(
            "fig9", replicates=2, base_seed=5, grid={"run": ("standalone",)},
            qps=300.0, duration=0.2, warmup=0.1,
        )
        runner = _runner(2)
        result = run_campaign(spec, runner=runner)
        assert not result.failures
        assert result.variant_count == 1 and len(result.spec_hashes) == 2
        assert [row["run"] for row in result.raw_rows()] == ["standalone", "standalone"]
        metrics = {row["metric"] for row in result.summary_rows()}
        assert {"local_p99_ms", "mla_p99_ms", "tla_p99_ms"} <= metrics
        assert "run" not in metrics
        # A re-run is served from the cache, run for run.
        assert run_campaign(spec, runner=runner).cache_hits == 2

    def test_rows_are_worker_invariant(self):
        serial = run_campaign(_campaign(), runner=_runner(1))
        parallel = run_campaign(_campaign(), runner=_runner(4))
        assert serial.raw_rows() == parallel.raw_rows()
        assert serial.summary_rows() == parallel.summary_rows()

    def test_rerun_is_served_from_cache(self):
        runner = _runner()
        cold = run_campaign(_campaign(), runner=runner)
        warm = run_campaign(_campaign(), runner=runner)
        assert warm.cache_hits == len(warm.seeds) * warm.variant_count
        assert warm.raw_rows() == cold.raw_rows()

    def test_replicate_zero_reuses_single_seed_run(self):
        # A historical single-seed run primes the cache for replicate 0.
        runner = _runner()
        matrix.run_scenario(
            "no-isolation", runner=runner, grid=GRID, seed=5, **FAST
        )
        result = run_campaign(_campaign(), runner=runner)
        assert result.cache_hits >= 1

    def test_unknown_scenario_rejected_before_running(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_campaign(make_campaign("nope"), runner=_runner())

    def test_bad_grid_rejected_before_running(self):
        spec = make_campaign("no-isolation", grid={"nope": (1,)}, **FAST)
        with pytest.raises(ConfigError, match="no axis"):
            run_campaign(spec, runner=_runner())

    def test_unseedable_scenario_rejected(self):
        def fixed_builder(qps=500.0, duration=0.5, warmup=0.1):
            raise AssertionError("must be rejected before building")

        matrix.register(
            matrix.Scenario(
                name="unseedable-test",
                description="no seed parameter, for campaign rejection tests",
                builder=fixed_builder,
            )
        )
        try:
            with pytest.raises(ConfigError, match="seed"):
                run_campaign(make_campaign("unseedable-test"), runner=_runner())
        finally:
            matrix._REGISTRY.pop("unseedable-test", None)

    def test_mid_campaign_failure_is_isolated(self):
        calls = {"count": 0}

        def flaky_builder(qps=500.0, duration=0.3, warmup=0.1, seed=5):
            calls["count"] += 1
            if seed != 5:
                raise RuntimeError("injected replicate failure")
            return matrix.get_scenario("no-isolation").builder(
                bully_threads=24, qps=qps, duration=duration, warmup=warmup, seed=seed
            )

        matrix.register(
            matrix.Scenario(
                name="flaky-test",
                description="fails for every derived seed",
                builder=flaky_builder,
            )
        )
        try:
            result = run_campaign(
                make_campaign("flaky-test", replicates=3, base_seed=5, **FAST),
                runner=_runner(),
            )
        finally:
            matrix._REGISTRY.pop("flaky-test", None)
        assert len(result.replicates) == 1
        assert result.replicate_indices == [0]
        assert len(result.failures) == 2
        assert all("RuntimeError" in f["error"] for f in result.failures)
        # Raw rows keep the original replicate indices, not a renumbering.
        assert [row["replicate"] for row in result.raw_rows()] == [0]


class TestCampaignBundle:
    def test_bundle_round_trip(self, tmp_path):
        result = run_campaign(_campaign(), runner=_runner())
        directory = write_campaign_bundle(result, tmp_path / "bundle")
        bundle = load_bundle(directory)
        assert bundle.kind == "campaign"
        assert bundle.rows == result.raw_rows()
        assert bundle.summary == result.summary_rows()
        assert bundle.manifest["seeds"] == list(result.seeds)
        assert bundle.manifest["meta"]["scenario"] == "no-isolation"

    def test_bundle_is_worker_invariant(self, tmp_path):
        serial = write_campaign_bundle(
            run_campaign(_campaign(), runner=_runner(1)), tmp_path / "serial"
        )
        parallel = write_campaign_bundle(
            run_campaign(_campaign(), runner=_runner(4)), tmp_path / "parallel"
        )
        for name in ("manifest.json", "rows.json", "summary.json"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_bundle_validates(self, tmp_path):
        directory = write_campaign_bundle(
            run_campaign(_campaign(), runner=_runner()), tmp_path / "bundle"
        )
        manifest = validate_bundle(directory)
        assert manifest["kind"] == "campaign"
