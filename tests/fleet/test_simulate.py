"""End-to-end fleet simulation tests: determinism, accounting, guardrails."""

import json
import pickle

import numpy as np
import pytest

from repro.config.schema import (
    FleetSpec,
    MachineGroupSpec,
    PlacementSpec,
    RolloutSpec,
)
from repro.experiments import matrix
from repro.faults.fleet import ShardFaultPlan
from repro.fleet.model import (
    ModeCalibration,
    interpolate_mode,
    quantile_grid,
)
from repro.fleet.simulate import (
    FleetShardTask,
    FleetSimulation,
    _merge_shards,
    _simulate_shard,
    build_demands,
    sampled_positions,
)
from repro.fleet.model import BASELINE, COLOCATED, FleetModel
from repro.metrics.latency import LatencyDigest
from repro.reporting.rows import rows_to_json
from repro.runtime import ExperimentRunner, ResultCache, spec_hash

from fleet_testing import make_tiny_fleet_spec


@pytest.fixture(scope="module")
def healthy_result(fleet_runner):
    spec = make_tiny_fleet_spec()
    result = FleetSimulation(spec, runner=fleet_runner).run()
    return spec, result


class TestHealthyRollout:
    def test_rollout_completes_and_reclaims_capacity(self, healthy_result):
        spec, result = healthy_result
        assert result.status == "completed"
        assert result.stages_completed == result.stages_total == 2
        assert result.machines == spec.total_machines
        assert result.reclaimed_core_hours > 0
        assert result.batch_machine_hours > 0
        assert [stage.decision for stage in result.stages] == [
            "reference",
            "advance",
            "advance",
        ]

    def test_target_config_stays_active(self, healthy_result):
        _, result = healthy_result
        assert all(version == 2 for version in result.active_config_versions.values())

    def test_digest_counts_cover_every_machine_bucket_sample(self, healthy_result):
        spec, result = healthy_result
        total_samples = result.machine_buckets * spec.samples_per_machine_bucket
        # Colocated machines are oversampled (canary fairness), never under.
        assert result.baseline_digest.count + result.colocated_digest.count >= total_samples
        assert result.baseline_digest.count > 0
        assert result.colocated_digest.count > 0

    def test_final_stage_enables_the_whole_fleet(self, healthy_result):
        spec, result = healthy_result
        assert result.stages[-1].machines_enabled == spec.total_machines
        assert result.stages[-1].colocated_machines > 0

    def test_rows_round_to_stable_payload(self, healthy_result):
        _, result = healthy_result
        rows = result.rows()
        assert [row["stage"] for row in rows] == ["bake", "stage-1", "stage-2"]
        summary = result.summary()
        assert summary["status"] == "completed"
        assert summary["machines"] == result.machines


class TestDeterminism:
    def test_serial_parallel_and_cached_runs_are_byte_identical(self):
        spec = make_tiny_fleet_spec()
        serial = FleetSimulation(
            spec, runner=ExperimentRunner(max_workers=1, cache=ResultCache())
        ).run()
        cache = ResultCache()
        shared = ExperimentRunner(max_workers=4, cache=cache)
        parallel = FleetSimulation(spec, runner=shared).run()
        hits_before = cache.hits
        repeat = FleetSimulation(spec, runner=shared).run()
        assert (
            rows_to_json(serial.rows())
            == rows_to_json(parallel.rows())
            == rows_to_json(repeat.rows())
        )
        assert cache.hits > hits_before  # the repeat was served from the cache

    def test_only_calibrations_are_cached(self):
        """Shards are recomputed on every run: a cold run stores exactly its
        unique calibration specs, and a repeat stores nothing and reproduces
        the cold run byte for byte."""
        spec = make_tiny_fleet_spec()
        model = FleetModel(spec)
        calibration_keys = {
            spec_hash(model.calibration_spec(group, mode, point))
            for group in spec.groups
            for mode in (BASELINE, COLOCATED)
            for point in range(len(spec.calibration_qps))
        }
        cache = ResultCache()
        runner = ExperimentRunner(max_workers=2, cache=cache)
        cold = FleetSimulation(spec, runner=runner).run()
        assert cache.stores == len(calibration_keys)
        repeat = FleetSimulation(spec, runner=runner).run()
        assert cache.stores == len(calibration_keys)

        def payload(result):
            return json.dumps({"summary": result.summary(), "rows": result.rows()}, sort_keys=True)

        assert payload(repeat) == payload(cold)

    def test_seed_changes_the_measurement(self, fleet_runner):
        base = FleetSimulation(make_tiny_fleet_spec(), runner=fleet_runner).run()
        other = FleetSimulation(
            make_tiny_fleet_spec(seed=99), runner=fleet_runner
        ).run()
        assert rows_to_json(base.rows()) != rows_to_json(other.rows())


class TestGuardrailBreach:
    def test_unprotected_rollout_halts_and_restores_prior_config(self, fleet_runner):
        result = matrix.run_scenario("fleet-guardrail-breach", runner=fleet_runner)
        fleet_result = result.results[0]
        assert fleet_result.status == "halted"
        assert fleet_result.stages_completed == 0
        assert fleet_result.stages[-1].decision == "halt"
        assert fleet_result.stages[-1].p99_ratio > 1.5
        assert fleet_result.slo_violation_minutes > 0
        # Every group's configuration is back at the pre-rollout version.
        assert all(v == 1 for v in fleet_result.active_config_versions.values())

    def test_matrix_row_reports_the_halt_and_rollback(self, fleet_runner):
        result = matrix.run_scenario("fleet-guardrail-breach", runner=fleet_runner)
        (row,) = result.rows()
        assert row["status"] == "halted"
        assert row["policy"] == "none"
        # The rollback observable: every config file back at version 1.
        assert row["config_versions"] == "1/1/1"


def synthetic_mode(scale: float) -> ModeCalibration:
    """A hand-built calibration: shard tests need no simulator runs."""
    grid = quantile_grid()
    base = 0.002 + 0.018 * grid**2
    return ModeCalibration(
        qps=(300.0, 900.0),
        quantiles=(
            tuple(float(v) for v in scale * base),
            tuple(float(v) for v in scale * 1.6 * base),
        ),
        busy_cpu=(0.4, 0.7),
        secondary_cpu=(0.1, 0.2),
        progress_per_s=(5.0, 9.0),
    )


def make_shard_task(**overrides) -> FleetShardTask:
    params = dict(
        stage="stage-1",
        group="row-test",
        shard_index=0,
        seed=11,
        logical_cores=48,
        samples_per_machine=7,
        colocated_samples_per_machine=13,
        bucket_seconds=60.0,
        # Below, between and beyond the calibrated load points: every
        # branch of the load-point bracketing runs.
        loads=(250.0, 500.0, 1100.0),
        placed_cores=(0, 4, 0, 6, 0, 0, 2, 0),
        baseline=synthetic_mode(1.0),
        colocated=synthetic_mode(1.35),
    )
    params.update(overrides)
    return FleetShardTask(**params)


def historical_shard(task: FleetShardTask):
    """The pre-vectorisation per-bucket sampling loop, verbatim.

    The reference the vectorised ``_simulate_shard`` must stay byte-identical
    to in exact mode: same RNG stream order (per bucket: baseline draws, then
    colocated draws), same interpolation and skew arithmetic.
    """
    from repro.fleet.simulate import MACHINE_SKEW_SIGMA
    from repro.simulation.randomness import stable_seed

    machines = len(task.placed_cores)
    rng = np.random.default_rng(
        stable_seed("fleet-shard", task.seed, task.group, task.stage, task.shard_index)
    )
    skew = rng.lognormal(mean=0.0, sigma=MACHINE_SKEW_SIGMA, size=machines)
    placed = np.asarray(task.placed_cores, dtype=np.float64)
    colocated_index = np.flatnonzero(placed > 0)
    baseline_index = np.flatnonzero(placed == 0)
    grid = quantile_grid()

    baseline_digests, colocated_digests = [], []
    reclaimed = 0.0
    progress = 0.0
    for qps in task.loads:
        bucket_baseline = LatencyDigest()
        bucket_colocated = LatencyDigest()
        for calibration, index, digest, per_machine in (
            (task.baseline, baseline_index, bucket_baseline, task.samples_per_machine),
            (task.colocated, colocated_index, bucket_colocated,
             task.colocated_samples_per_machine),
        ):
            if index.size == 0:
                continue
            curve, _, _, _ = interpolate_mode(calibration, qps)
            uniforms = rng.random((index.size, per_machine))
            samples = np.interp(uniforms, grid, curve) * skew[index][:, None]
            digest.add(samples.ravel())
        if colocated_index.size:
            _, _, secondary_cpu, _ = interpolate_mode(task.colocated, qps)
            granted = secondary_cpu * task.logical_cores
            effective = np.minimum(placed[colocated_index], granted)
            reclaimed += float(effective.sum()) * task.bucket_seconds / 3600.0
            if granted > 0.0:
                progress += float((effective / granted).sum()) * task.bucket_seconds / 3600.0
        baseline_digests.append(bucket_baseline)
        colocated_digests.append(bucket_colocated)
    return baseline_digests, colocated_digests, reclaimed, progress


def per_bucket_digests(task: FleetShardTask):
    """The per-bucket (baseline, colocated) digests of one shard, built the
    way the worker built them before it returned one count block: per
    bucket and mode, the drawn samples of the machines that are up go in
    through ``add``, then the closed form of the unsampled up machines
    (healthy, then straggling) through ``add_counts``.

    Unlike :func:`historical_shard`, this covers sampled mode and fault
    plans; it draws the same stream in the same order.
    """
    from repro.fleet.model import closed_form_histogram
    from repro.fleet.simulate import MACHINE_SKEW_SIGMA
    from repro.simulation.randomness import stable_seed

    machines = len(task.placed_cores)
    buckets = len(task.loads)
    rng = np.random.default_rng(
        stable_seed("fleet-shard", task.seed, task.group, task.stage, task.shard_index)
    )
    skew = rng.lognormal(mean=0.0, sigma=MACHINE_SKEW_SIGMA, size=machines)
    placed = np.asarray(task.placed_cores)
    sampled = np.arange(machines) if task.sampled is None else np.asarray(task.sampled)
    faults = task.faults if task.faults is not None else healthy_plan(buckets)
    edges = LatencyDigest().edges
    classes = (
        (task.baseline, np.flatnonzero(placed == 0), task.samples_per_machine),
        (task.colocated, np.flatnonzero(placed > 0), task.colocated_samples_per_machine),
    )
    per_mode = ([], [])
    for bucket, qps in enumerate(task.loads):
        down = list(faults.down[bucket])
        degraded = list(faults.degraded) if bucket in faults.degraded_buckets else []
        for (calibration, members, per_machine), digests in zip(classes, per_mode):
            curve, _, _, _ = interpolate_mode(calibration, qps)
            digest = LatencyDigest()
            drawn = members[np.isin(members, sampled)]
            samples = np.interp(
                rng.random((drawn.size, per_machine)), quantile_grid(), curve
            ) * skew[drawn][:, None]
            samples[np.isin(drawn, degraded)] *= faults.slowdown
            digest.add(samples[~np.isin(drawn, down)].ravel())
            rest = members[~np.isin(members, sampled) & ~np.isin(members, down)]
            straggling = int(np.isin(rest, degraded).sum())
            for closed_curve, count in (
                (curve, rest.size - straggling),
                (curve * faults.slowdown, straggling),
            ):
                if count:
                    digest.add_counts(*closed_form_histogram(closed_curve, edges, count * per_machine))
            digests.append(digest)
    return per_mode


def assert_digests_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert np.array_equal(got._counts, want._counts)
        assert got._sum == want._sum
        assert got._max == want._max


def shard_digests(result):
    """The per-bucket (baseline, colocated) digest lists a shard result's
    block stands for, each digest rebuilt through ``add_counts``."""
    full = np.zeros(result.sums.shape + (LatencyDigest().counts_size,), dtype=np.int64)
    full[:, :, result.first_cell : result.first_cell + result.counts.shape[2]] = result.counts
    per_mode = ([], [])
    for which, digests in enumerate(per_mode):
        for bucket in range(full.shape[1]):
            digest = LatencyDigest()
            digest.add_counts(
                full[which, bucket], result.sums[which, bucket], result.maxima[which, bucket]
            )
            digests.append(digest)
    return per_mode


def healthy_plan(buckets=3, **overrides):
    params = dict(down=((),) * buckets, degraded=(), slowdown=1.0, degraded_buckets=())
    params.update(overrides)
    return ShardFaultPlan(**params)


#: Pickled size bound of the 256-machine, 3-bucket sampled shard result
#: (measured 5,481 bytes), with headroom for the pickle protocol's framing.
PICKLED_BOUND = 8_000

#: Shard kinds that take each branch of the worker: exact and sampled draws,
#: crash episodes (drawn and unsampled machines down), degraded machines
#: (drawn and unsampled stragglers) and a shard whose every machine is down.
SHARD_KINDS = {
    "exact": dict(),
    "sampled": dict(sampled=(0, 3, 4)),
    "crash-episode": dict(
        sampled=(0, 3, 4), faults=healthy_plan(down=((1, 3), (), (0, 2, 4, 5)))
    ),
    "degraded": dict(
        sampled=(0, 3, 4),
        faults=healthy_plan(degraded=(2, 3, 6), slowdown=2.0, degraded_buckets=(1, 2)),
    ),
    "all-down": dict(faults=healthy_plan(down=(tuple(range(8)),) * 3)),
}


class TestVectorisedShard:
    def test_exact_mode_is_byte_identical_to_the_historical_loop(self):
        task = make_shard_task()
        result = _simulate_shard(task)
        baseline, colocated, reclaimed, progress = historical_shard(task)
        got_baseline, got_colocated = shard_digests(result)
        assert_digests_identical(got_baseline, baseline)
        assert_digests_identical(got_colocated, colocated)
        assert result.reclaimed_core_hours == reclaimed
        assert result.batch_machine_hours == progress

    def test_exact_mode_byte_identity_without_colocation(self):
        task = make_shard_task(placed_cores=(0,) * 6)
        result = _simulate_shard(task)
        baseline, colocated, reclaimed, progress = historical_shard(task)
        got_baseline, got_colocated = shard_digests(result)
        assert_digests_identical(got_baseline, baseline)
        assert_digests_identical(got_colocated, colocated)
        assert result.reclaimed_core_hours == reclaimed == 0.0
        assert result.batch_machine_hours == progress == 0.0

    def test_sampled_shard_preserves_the_full_sample_quota(self):
        """Every machine-bucket still contributes exactly its sample count:
        unsampled machines pour in their closed-form expected histogram."""
        task = make_shard_task(sampled=(0, 3, 4))  # 2 baseline + 1 colocated
        baseline_digests, colocated_digests = shard_digests(_simulate_shard(task))
        baseline_machines = sum(1 for c in task.placed_cores if c == 0)
        colocated_machines = len(task.placed_cores) - baseline_machines
        for digest in baseline_digests:
            assert digest.count == baseline_machines * task.samples_per_machine
        for digest in colocated_digests:
            assert digest.count == colocated_machines * task.colocated_samples_per_machine

    def test_sampled_shard_accounting_matches_exact_mode(self):
        """Reclaimed capacity and batch progress never depend on sampling —
        they are closed-form in the placed cores and calibration scalars."""
        exact = _simulate_shard(make_shard_task())
        sampled = _simulate_shard(make_shard_task(sampled=(1, 2)))
        assert sampled.reclaimed_core_hours == exact.reclaimed_core_hours
        assert sampled.batch_machine_hours == exact.batch_machine_hours

    def test_sampled_shard_p99_tracks_exact_mode(self):
        many = tuple(0 if index % 3 else 4 for index in range(96))
        exact_task = make_shard_task(placed_cores=many)
        sampled_task = make_shard_task(
            placed_cores=many, sampled=tuple(range(0, 96, 2))
        )
        exact = shard_digests(_simulate_shard(exact_task))
        sampled = shard_digests(_simulate_shard(sampled_task))
        for got_mode, want_mode in zip(sampled, exact):
            for got, want in zip(got_mode, want_mode):
                assert got.percentile(99.0) == pytest.approx(want.percentile(99.0), rel=0.1)


class TestShardBlocks:
    """The one count block per shard, and its merge in the parent."""

    @pytest.mark.parametrize("kind", sorted(SHARD_KINDS))
    def test_block_merge_equals_merging_per_bucket_digests(self, kind):
        """Each shard's block rebuilds its old per-bucket digests, and merging
        the blocks with slice adds gives, bit for bit, the counts, sums and
        maxima of merging those digests in task order."""
        groups = ("row-a", "row-b")
        layouts = ((0, 4, 0, 6, 0, 0, 2, 0), (3, 0, 0, 0, 5, 0, 0, 1), (0,) * 8)
        tasks = [
            make_shard_task(
                group=groups[index % 2],
                shard_index=index,
                placed_cores=layouts[index % 3],
                **SHARD_KINDS[kind],
            )
            for index in range(5)
        ]
        results = [_simulate_shard(task) for task in tasks]
        references = [per_bucket_digests(task) for task in tasks]
        for result, reference in zip(results, references):
            for got, want in zip(shard_digests(result), reference):
                assert_digests_identical(got, want)
        merged = _merge_shards(results, groups, buckets=3)
        for group in groups:
            for which, mode in enumerate(("baseline", "colocated")):
                for bucket in range(3):
                    want = LatencyDigest()
                    for task, reference in zip(tasks, references):
                        if task.group == group:
                            want.merge(reference[which][bucket])
                    assert_digests_identical([merged[group][mode][bucket]], [want])
        if kind == "all-down":
            assert all(result.counts.shape == (2, 3, 0) for result in results)
            assert not any(
                digest.count
                for modes in merged.values()
                for digests in modes.values()
                for digest in digests
            )

    @pytest.mark.parametrize("kind", ["exact", "sampled", "crash-episode", "degraded"])
    def test_block_totals_are_the_sample_quotas(self, kind):
        """Each bucket's block total is its up machines' sample quota, so no
        sample falls outside the span, and the span is tight: its first and
        last cells hold samples."""
        task = make_shard_task(**SHARD_KINDS[kind])
        result = _simulate_shard(task)
        placed = np.asarray(task.placed_cores)
        per_machine = (task.samples_per_machine, task.colocated_samples_per_machine)
        for bucket in range(3):
            down = task.faults.down[bucket] if task.faults is not None else ()
            up = np.ones(placed.size, dtype=bool)
            up[list(down)] = False
            for which, members in enumerate((placed == 0, placed > 0)):
                quota = int(np.count_nonzero(members & up)) * per_machine[which]
                assert int(result.counts[which, bucket].sum()) == quota
        assert result.counts[:, :, 0].any() and result.counts[:, :, -1].any()

    def test_every_cell_outside_the_span_is_zero(self):
        """Against the untrimmed historical digests: the span holds every
        occupied cell, and the cells the block drops are empty."""
        task = make_shard_task()
        result = _simulate_shard(task)
        baseline, colocated, _, _ = historical_shard(task)
        span = slice(result.first_cell, result.first_cell + result.counts.shape[2])
        for which, digests in enumerate((baseline, colocated)):
            for bucket, digest in enumerate(digests):
                outside = digest._counts.copy()
                outside[span] = 0
                assert not outside.any()
                assert np.array_equal(digest._counts[span], result.counts[which, bucket])

    def test_sampled_shard_result_pickles_small(self):
        """A 256-machine, 3-bucket sampled shard result is one trimmed block
        of 103 cells per row: 5.5 KB pickled, against 25.6 KB for six full
        digests."""
        placed = tuple(4 if index % 4 == 0 else 0 for index in range(256))
        task = make_shard_task(placed_cores=placed, sampled=tuple(range(0, 256, 8)))
        result = _simulate_shard(task)
        assert len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)) < PICKLED_BOUND


class TestSampledPositions:
    def test_exact_mode_returns_none(self):
        spec = make_tiny_fleet_spec()
        placed = np.zeros(spec.groups[0].machines, dtype=np.int64)
        assert sampled_positions(spec, placed) is None

    def test_small_classes_are_fully_drawn(self):
        """The per-class floor keeps canary-sized classes exact no matter
        how aggressive the sampling fraction is."""
        spec = make_tiny_fleet_spec(
            machines=600, sample_fraction=0.01, min_sampled_machines=128
        )
        placed = np.zeros(40, dtype=np.int64)
        placed[:5] = 4  # 5 colocated, 35 baseline
        chosen = sampled_positions(spec, placed)
        assert chosen.tolist() == list(range(40))

    def test_large_classes_are_strided_deterministically(self):
        spec = make_tiny_fleet_spec(
            machines=600, sample_fraction=0.1, min_sampled_machines=128
        )
        placed = np.zeros(400, dtype=np.int64)
        first = sampled_positions(spec, placed)
        second = sampled_positions(spec, placed)
        assert np.array_equal(first, second)
        assert first.size == 128  # the floor dominates 0.1 * 400
        assert first[0] == 0 and first[-1] == 399  # evenly strided
        assert (np.diff(first) > 0).all()  # sorted, no repeats

    def test_each_colocation_class_is_strided_over_its_own_positions(self):
        """Colocated and baseline machines interleave by position; each
        class is strided separately and the union comes back sorted."""
        spec = make_tiny_fleet_spec(
            machines=600, sample_fraction=0.1, min_sampled_machines=3
        )
        placed = np.zeros(60, dtype=np.int64)
        placed[1::3] = 6  # positions 1, 4, ..., 58: 20 colocated, 40 baseline
        chosen = sampled_positions(spec, placed)
        # Colocated: 3 of 20 (the floor) at class ranks 0, 10, 19.  Baseline:
        # ceil(0.1 * 40) = 4 at class ranks 0, 13, 26, 39.
        assert chosen.tolist() == [0, 1, 20, 31, 39, 58, 59]


class TestPlacementIntegration:
    def test_build_demands_targets_reclaimable_fraction(self, fleet_runner):
        spec = make_tiny_fleet_spec()
        calibrations = FleetModel(spec).calibrate(fleet_runner)
        demands = build_demands(spec, calibrations)
        assert demands.dtype == np.int64
        assert set(demands.tolist()) == {spec.placement.job_cores_each}
        total = int(demands.sum())
        reclaimable = sum(
            group.machines * calibrations[group.name].reclaimable_cores(group.buffer_cores)
            for group in spec.groups
        )
        assert 0 < total <= reclaimable * spec.placement.demand_fraction + spec.placement.job_cores_each

    def test_explicit_job_cores_override_auto_demand(self, fleet_runner):
        spec = make_tiny_fleet_spec().replace(
            placement=PlacementSpec(strategy="worst_fit", job_cores=(4, 4, 2))
        )
        calibrations = FleetModel(spec).calibrate(fleet_runner)
        demands = build_demands(spec, calibrations)
        assert demands.dtype == np.int64
        assert demands.tolist() == [4, 4, 2]

    def test_strategies_produce_identical_totals_when_capacity_abounds(self, fleet_runner):
        base = make_tiny_fleet_spec()
        totals = {}
        for strategy in ("first_fit", "best_fit", "worst_fit"):
            spec = base.replace(placement=PlacementSpec(strategy=strategy))
            result = FleetSimulation(spec, runner=fleet_runner).run()
            totals[strategy] = result.summary()["reclaimed_core_hours"]
        assert len(totals) == 3
        assert all(value > 0 for value in totals.values())

    def test_empty_job_cores_means_a_deliberately_empty_queue(self, fleet_runner):
        """Regression: ``job_cores=()`` used to be indistinguishable from the
        unset default and silently fell back to the derived demand list."""
        spec = make_tiny_fleet_spec().replace(placement=PlacementSpec(job_cores=()))
        calibrations = FleetModel(spec).calibrate(fleet_runner)
        demands = build_demands(spec, calibrations)
        assert demands.dtype == np.int64 and demands.size == 0

    def test_baseline_only_fleet_runs_with_no_batch_demand(self, fleet_runner):
        spec = make_tiny_fleet_spec().replace(placement=PlacementSpec(job_cores=()))
        result = FleetSimulation(spec, runner=fleet_runner).run()
        assert result.status == "completed"
        assert result.reclaimed_core_hours == 0.0
        assert result.colocated_digest.count == 0


class TestSampledHyperscaleMode:
    """Sampled (hyperscale) mode cross-validated against exact mode."""

    @staticmethod
    def run_pair(runner, seed=7):
        exact = make_tiny_fleet_spec(machines=600, seed=seed)
        sampled = exact.replace(sample_fraction=0.25, min_sampled_machines=128)
        return (
            FleetSimulation(exact, runner=runner).run(),
            FleetSimulation(sampled, runner=runner).run(),
        )

    @pytest.fixture(scope="class")
    def mode_pair(self, fleet_runner):
        return self.run_pair(fleet_runner)

    def test_sampled_rollout_reaches_the_same_decisions(self, mode_pair):
        exact, sampled = mode_pair
        assert sampled.status == exact.status == "completed"
        assert [s.decision for s in sampled.stages] == [s.decision for s in exact.stages]

    def test_sampled_p99s_track_exact_mode(self, fleet_runner):
        """Over seeds 1-5, every stage P99 of sampled mode falls in the same
        digest bin as exact mode's, or an adjacent one (a bin is 3.1% wide)."""

        def bin_of(p99_ms):
            return int(np.searchsorted(LatencyDigest().edges, p99_ms / 1000.0, side="right"))

        for seed in range(1, 6):
            exact, sampled = self.run_pair(fleet_runner, seed)
            for got, want in zip(sampled.stages, exact.stages):
                pairs = [(got.baseline_p99_ms, want.baseline_p99_ms)]
                if want.colocated_p99_ms:
                    pairs.append((got.colocated_p99_ms, want.colocated_p99_ms))
                for got_ms, want_ms in pairs:
                    assert abs(bin_of(got_ms) - bin_of(want_ms)) <= 1, (seed, got.stage)

    def test_sampled_accounting_is_exact(self, mode_pair):
        """Capacity accounting covers every machine even in sampled mode."""
        exact, sampled = mode_pair
        assert sampled.reclaimed_core_hours == exact.reclaimed_core_hours
        assert sampled.batch_machine_hours == exact.batch_machine_hours
        assert sampled.machine_buckets == exact.machine_buckets

    def test_sampled_digests_cover_every_machine_bucket_sample(self, mode_pair):
        exact, sampled = mode_pair
        assert (
            sampled.baseline_digest.count + sampled.colocated_digest.count
            >= exact.baseline_digest.count + exact.colocated_digest.count
        )

    def test_sampled_mode_is_worker_count_invariant(self):
        spec = make_tiny_fleet_spec(
            machines=600, sample_fraction=0.25, min_sampled_machines=128
        )
        serial = FleetSimulation(
            spec, runner=ExperimentRunner(max_workers=1, cache=ResultCache())
        ).run()
        parallel = FleetSimulation(
            spec, runner=ExperimentRunner(max_workers=4, cache=ResultCache())
        ).run()
        assert rows_to_json(serial.rows()) == rows_to_json(parallel.rows())


class TestGuardrailPhaseAlignment:
    """Regression: the guardrail must compare a stage's colocated P99 with
    the *concurrent* baseline, not the bake-time snapshot."""

    @pytest.fixture(scope="class")
    def peak_stage_result(self):
        # One row with a 6x day/night swing, phased so the bake bucket sits
        # exactly on the trough and the single stage bucket on the peak.
        # Calibration is synthetic (monkeypatched) so the latency/load
        # relationship is controlled: the tail triples between the load
        # points while isolation only costs 15 % — a healthy rollout that
        # the historical trough-time reference nevertheless condemns.
        from repro.fleet.model import GroupCalibration

        group = MachineGroupSpec(
            name="row-swing",
            machines=16,
            buffer_cores=8,
            secondary="ml_training",
            peak_qps=3000.0,
            trough_qps=500.0,
            phase_offset=0.5,
        )
        spec = FleetSpec(
            groups=(group,),
            rollout=RolloutSpec(
                stage_fractions=(1.0,),
                target_policy="blind",
                guardrail_p99_multiplier=1.5,
                bake_buckets=1,
                stage_buckets=1,
            ),
            bucket_seconds=1800.0,
            diurnal_period=3600.0,
            samples_per_machine_bucket=8,
            calibration_qps=(500.0, 3000.0),
            calibration_duration=0.4,
            calibration_warmup=0.1,
            seed=7,
        )

        grid = quantile_grid()
        base = 0.002 + 0.018 * grid**2

        def synthetic_calibration(scale_low, scale_high):
            return ModeCalibration(
                qps=(500.0, 3000.0),
                quantiles=(
                    tuple(float(v) for v in scale_low * base),
                    tuple(float(v) for v in scale_high * base),
                ),
                busy_cpu=(0.3, 0.5),
                secondary_cpu=(0.15, 0.15),
                progress_per_s=(5.0, 5.0),
            )

        def fake_calibrate(model_self, runner):
            return {
                g.name: GroupCalibration(
                    group=g.name,
                    logical_cores=g.machine.logical_cores,
                    baseline=synthetic_calibration(1.0, 3.0),
                    colocated=synthetic_calibration(1.15, 3.45),
                )
                for g in model_self.spec.groups
            }

        patcher = pytest.MonkeyPatch()
        patcher.setattr(FleetModel, "calibrate", fake_calibrate)
        try:
            runner = ExperimentRunner(max_workers=1, cache=ResultCache())
            result = FleetSimulation(spec, runner=runner).run()
        finally:
            patcher.undo()
        return result

    def test_peak_stage_is_judged_against_the_concurrent_baseline(
        self, peak_stage_result
    ):
        result = peak_stage_result
        assert result.status == "completed"
        assert result.stages[-1].decision == "advance"
        assert result.stages[-1].p99_ratio < 1.5

    def test_the_bake_snapshot_reference_would_have_halted(self, peak_stage_result):
        """The discriminating half of the regression: under the historical
        bake-time reference this exact fleet breaches (the peak-load tail is
        far more than 1.5x the trough-load tail), so the pre-fix code halts
        where the fixed code correctly advances."""
        result = peak_stage_result
        bake_p99 = result.stages[0].baseline_p99_ms
        stage = result.stages[-1]
        assert stage.colocated_p99_ms > 1.5 * bake_p99
