"""Tests for the fleet model: specs, load curves, sharding, calibration and
the closed-form row histogram."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.config.schema import (
    BlindIsolationSpec,
    FleetSpec,
    MachineGroupSpec,
    PerfIsoSpec,
    PlacementSpec,
    RolloutSpec,
    StaticCoreSpec,
)
from repro.config.validation import validate_fleet
from repro.errors import ConfigError, ExperimentError
from repro.fleet.model import (
    QUANTILE_GRID_MAX,
    QUANTILE_POINTS,
    FleetModel,
    _largest_remainder,
    _trapezoid,
    closed_form_histogram,
    interpolate_mode,
    quantile_grid,
)
from repro.fleet.scenarios import default_groups, stage_fractions
from repro.fleet.simulate import FleetSimulation
from repro.metrics.latency import LatencyDigest
from repro.simulation.randomness import stable_seed

from fleet_testing import make_tiny_fleet_spec


class TestSpecs:
    def test_default_groups_sum_to_requested_machines(self):
        for machines in (3, 24, 650, 2000):
            groups = default_groups(machines)
            assert sum(group.machines for group in groups) == machines
            assert len({group.name for group in groups}) == 3

    def test_stage_fractions_shapes(self):
        assert stage_fractions(1) == (1.0,)
        three = stage_fractions(3)
        assert three[0] == pytest.approx(0.02)
        assert three[-1] == 1.0
        assert list(three) == sorted(three)

    def test_group_validation(self):
        with pytest.raises(ConfigError):
            MachineGroupSpec(name="", machines=5)
        with pytest.raises(ConfigError):
            MachineGroupSpec(name="g", machines=0)
        with pytest.raises(ConfigError):
            MachineGroupSpec(name="g", secondary="quake-server")
        with pytest.raises(ConfigError):
            MachineGroupSpec(name="g", peak_qps=100.0, trough_qps=200.0)
        with pytest.raises(ConfigError):
            MachineGroupSpec(name="g", phase_offset=1.5)

    def test_rollout_validation(self):
        with pytest.raises(ConfigError):
            RolloutSpec(stage_fractions=())
        with pytest.raises(ConfigError):
            RolloutSpec(stage_fractions=(0.5, 0.2, 1.0))
        with pytest.raises(ConfigError):
            RolloutSpec(stage_fractions=(0.02, 0.5))
        with pytest.raises(ConfigError):
            RolloutSpec(guardrail_p99_multiplier=0.9)
        with pytest.raises(ConfigError):
            RolloutSpec(target_policy="yolo")

    def test_placement_validation(self):
        with pytest.raises(ConfigError):
            PlacementSpec(strategy="magic")
        with pytest.raises(ConfigError):
            PlacementSpec(job_cores=(4, 0))
        with pytest.raises(ConfigError):
            PlacementSpec(demand_fraction=0.0)

    def test_fleet_validation(self):
        group = MachineGroupSpec(name="g", machines=4)
        with pytest.raises(ConfigError):
            FleetSpec(groups=())
        with pytest.raises(ConfigError):
            FleetSpec(groups=(group,), calibration_qps=(500.0,))
        with pytest.raises(ConfigError):
            FleetSpec(groups=(group,), calibration_qps=(900.0, 300.0))
        with pytest.raises(ConfigError):
            validate_fleet(FleetSpec(groups=(group, group)))
        with pytest.raises(ConfigError):
            validate_fleet(FleetSpec(groups=(MachineGroupSpec(name="g", buffer_cores=48),)))
        validate_fleet(make_tiny_fleet_spec())


class TestModel:
    def test_machine_names_unique_and_grouped(self):
        model = FleetModel(make_tiny_fleet_spec(machines=30))
        names = [
            name
            for group in model.spec.groups
            for name in model.machine_names(group)
        ]
        assert len(names) == len(set(names)) == 30

    def test_enabled_count_rounds_up_but_caps(self):
        model = FleetModel(make_tiny_fleet_spec())
        group = model.spec.groups[0]
        assert model.enabled_count(group, 0.0001) == 1
        assert model.enabled_count(group, 1.0) == group.machines

    def test_load_at_respects_phase_offset(self):
        spec = make_tiny_fleet_spec()
        model = FleetModel(spec)
        aligned = model.spec.groups[0]      # phase 0: peak at t=0
        shifted = model.spec.groups[2]      # phase-offset row
        assert model.load_at(aligned, 0.0) == pytest.approx(aligned.peak_qps)
        assert model.load_at(shifted, 0.0) < shifted.peak_qps
        # One full period later the load repeats.
        assert model.load_at(shifted, spec.diurnal_period) == pytest.approx(
            model.load_at(shifted, 0.0)
        )

    def test_load_at_delegates_to_the_shared_arrival_model(self):
        """The fleet's diurnal curve *is* the workload-layer DiurnalArrival.

        Pinned bit-for-bit so the fleet and single-machine implementations
        cannot drift apart again (the historical private copy is gone).
        """
        from repro.workloads.arrival_models import DiurnalArrival

        spec = make_tiny_fleet_spec()
        model = FleetModel(spec)
        for group in spec.groups:
            shared = model.arrival_model(group)
            assert isinstance(shared, DiurnalArrival)
            assert shared.spec.peak_qps == group.peak_qps
            assert shared.spec.trough_qps == group.trough_qps
            assert shared.spec.period == spec.diurnal_period
            assert shared.spec.phase_offset == group.phase_offset
            for t in (0.0, 13.7, 900.0, 1800.5, spec.diurnal_period * 2.25):
                assert model.load_at(group, t) == shared.rate_at(t)

    def test_shards_partition_every_machine_exactly_once(self):
        spec = make_tiny_fleet_spec(machines=30).replace(shard_machines=4)
        model = FleetModel(spec)
        for group in spec.groups:
            covered = []
            for _, start, stop in model.shards(group):
                covered.extend(range(start, stop))
            assert covered == list(range(group.machines))

    def test_quantile_grid_is_one_read_only_array(self):
        grid = quantile_grid()
        assert grid is quantile_grid()
        expected = np.linspace(0.0, 1.0, QUANTILE_POINTS)
        expected[-1] = QUANTILE_GRID_MAX
        assert np.array_equal(grid, expected)
        with pytest.raises(ValueError):
            grid[0] = 0.5

    def test_stable_seed_is_process_independent_and_sensitive(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 1) != stable_seed("b", 1)


class TestCalibrationSpecs:
    def _group(self, **overrides):
        params = dict(name="g", machines=4)
        params.update(overrides)
        return MachineGroupSpec(**params)

    def _spec_for(self, group, policy="blind"):
        fleet = FleetSpec(groups=(group,)).replace(
            rollout=RolloutSpec(target_policy=policy)
        )
        return FleetModel(fleet).calibration_spec(group, "colocated", 0)

    def test_every_secondary_kind_maps_to_its_tenant(self):
        assert self._spec_for(self._group(secondary="ml_training")).ml_training is not None
        assert self._spec_for(self._group(secondary="hdfs")).hdfs is not None
        assert self._spec_for(self._group(secondary="disk_bully")).disk_bully is not None
        bully = self._spec_for(self._group(secondary="cpu_bully", secondary_threads=12))
        assert bully.cpu_bully.threads == 12
        default_bully = self._spec_for(self._group(secondary="cpu_bully"))
        assert default_bully.cpu_bully.threads > 0

    def test_secondary_threads_override(self):
        spec = self._spec_for(self._group(secondary="ml_training", secondary_threads=6))
        assert spec.ml_training.threads == 6
        disk = self._spec_for(self._group(secondary="disk_bully", secondary_threads=2))
        assert disk.disk_bully.threads == 2

    def test_target_policy_shapes_the_colocated_perfiso(self):
        blind = self._spec_for(self._group(buffer_cores=6), policy="blind")
        assert blind.perfiso.cpu == BlindIsolationSpec(buffer_cores=6)
        static = self._spec_for(self._group(), policy="static_cores")
        assert static.perfiso.cpu == StaticCoreSpec()
        # ``none`` ships PerfIso without a CPU policy (its I/O throttle and
        # memory guard stay on), and the colocated mode calibrates that.
        none = self._spec_for(self._group(), policy="none")
        assert none.perfiso == PerfIsoSpec(cpu=None)
        assert none.perfiso.io_throttle.enabled and none.perfiso.memory_guard.enabled

    def test_disk_bound_none_rollout_ships_the_config_it_calibrated(self, fleet_runner):
        """A disk-bound group is where PerfIso without a CPU policy differs
        from no PerfIso at all: the target the rollout publishes, read back
        from the config store, is the colocated calibration's PerfIso."""
        group = self._group(name="disk", secondary="disk_bully")
        tiny = make_tiny_fleet_spec()
        spec = tiny.replace(
            groups=(group,),
            rollout=dataclasses.replace(
                tiny.rollout, target_policy="none", guardrail_p99_multiplier=100.0
            ),
        )
        simulation = FleetSimulation(spec, runner=fleet_runner)
        assert simulation.run().status == "completed"
        published = simulation.config_store.fetch("perfiso-disk.json")
        model = FleetModel(spec)
        for point in range(len(spec.calibration_qps)):
            assert model.calibration_spec(group, "colocated", point).perfiso == published
        assert published.cpu is None and published.io_throttle.enabled

    def test_baseline_mode_has_no_secondary_or_perfiso(self):
        group = self._group(secondary="cpu_bully")
        fleet = FleetSpec(groups=(group,))
        spec = FleetModel(fleet).calibration_spec(group, "baseline", 1)
        assert spec.perfiso is None
        assert not spec.secondary_jobs()
        assert spec.workload.qps == fleet.calibration_qps[1]


class TestCalibration:
    def test_calibrate_produces_monotone_quantiles(self, fleet_runner, tiny_fleet_spec):
        model = FleetModel(tiny_fleet_spec)
        calibrations = model.calibrate(fleet_runner)
        assert set(calibrations) == {g.name for g in tiny_fleet_spec.groups}
        for calibration in calibrations.values():
            for mode in (calibration.baseline, calibration.colocated):
                assert mode.qps == tiny_fleet_spec.calibration_qps
                for curve in mode.quantiles:
                    values = np.asarray(curve)
                    assert values.size == QUANTILE_POINTS
                    assert np.all(np.diff(values) >= 0)
                    assert np.all(values >= 0)

    def test_reclaimable_cores_positive_and_below_machine(self, fleet_runner, tiny_fleet_spec):
        model = FleetModel(tiny_fleet_spec)
        calibrations = model.calibrate(fleet_runner)
        for group in tiny_fleet_spec.groups:
            reclaimable = calibrations[group.name].reclaimable_cores(group.buffer_cores)
            assert 0 <= reclaimable <= group.machine.logical_cores - group.buffer_cores

    def test_interpolate_mode_blends_and_clamps(self, fleet_runner, tiny_fleet_spec):
        model = FleetModel(tiny_fleet_spec)
        mode = model.calibrate(fleet_runner)[tiny_fleet_spec.groups[0].name].colocated
        low, *_ = interpolate_mode(mode, 1.0)
        assert np.array_equal(low, np.asarray(mode.quantiles[0]))
        high, *_ = interpolate_mode(mode, 1e9)
        assert np.array_equal(high, np.asarray(mode.quantiles[-1]))
        mid_qps = (mode.qps[0] + mode.qps[1]) / 2.0
        mid, busy, _, _ = interpolate_mode(mode, mid_qps)
        expected = (np.asarray(mode.quantiles[0]) + np.asarray(mode.quantiles[1])) / 2.0
        assert np.allclose(mid, expected)
        assert min(mode.busy_cpu) <= busy <= max(mode.busy_cpu)

    def test_second_calibration_is_fully_cached(self, fleet_runner, tiny_fleet_spec):
        model = FleetModel(tiny_fleet_spec)
        model.calibrate(fleet_runner)
        stores_before = fleet_runner.cache.stores
        model.calibrate(fleet_runner)
        assert fleet_runner.cache.stores == stores_before

    def test_outcome_without_samples_raises_through_the_shared_fold(self, tiny_fleet_spec):
        """Both calibrate() and Figure 10's direct fold reject an empty run."""
        from types import SimpleNamespace

        empty = SimpleNamespace(latency_samples=np.empty(0))

        class EmptyRunner:
            def run_batch(self, tasks):
                return [empty] * len(tasks)

        model = FleetModel(tiny_fleet_spec)
        group = tiny_fleet_spec.groups[0]
        with pytest.raises(ExperimentError, match=r"\('%s', 'baseline', 0\)" % group.name):
            model.calibrate(EmptyRunner())
        with pytest.raises(ExperimentError, match="produced no latency samples"):
            model.mode_calibration(group, "colocated", [empty])


class TestDerivedGroupLoadCurves:
    def test_load_at_honours_a_derived_group_not_in_the_spec(self):
        """load_at is a function of the *passed* group's fields, not its name."""
        import dataclasses

        spec = make_tiny_fleet_spec()
        model = FleetModel(spec)
        group = spec.groups[0]
        shifted = dataclasses.replace(group, phase_offset=0.5)
        # Same name, different phase: the curves must differ at t=0.
        assert model.load_at(shifted, 0.0) != model.load_at(group, 0.0)
        assert model.load_at(shifted, 0.0) == pytest.approx(group.trough_qps)
        renamed = dataclasses.replace(group, name="not-in-the-fleet")
        assert model.load_at(renamed, 0.0) == model.load_at(group, 0.0)


def reference_closed_form_histogram(curve, edges, total):
    """``closed_form_histogram``'s body before it was memoised, verbatim."""
    grid = quantile_grid()
    cdf = np.interp(edges, curve, grid)
    # Uniform draws in (QUANTILE_GRID_MAX, 1) clamp to the last curve value,
    # so the CDF saturates at 1.0 there (np.interp stops at the grid's 0.999).
    cdf = np.where(edges >= curve[-1], 1.0, cdf)
    probs = np.empty(edges.size + 1, dtype=np.float64)
    probs[0] = cdf[0]
    probs[1:-1] = np.diff(cdf)
    probs[-1] = 1.0 - cdf[-1]
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum()
    counts = _largest_remainder(probs * total, total)
    mean = float(_trapezoid(curve, grid) + (1.0 - grid[-1]) * curve[-1])
    return counts, mean * total, float(curve[-1])


@st.composite
def quantile_curves(draw):
    """A non-decreasing latency curve (seconds) on the quantile grid."""
    start = draw(st.floats(1e-5, 0.05))
    steps = draw(
        arrays(np.float64, QUANTILE_POINTS - 1, elements=st.floats(0.0, 0.01))
    )
    return start + np.concatenate(([0.0], np.cumsum(steps)))


QUOTAS = st.integers(1, 100_000)


class TestClosedFormHistogram:
    edges = LatencyDigest().edges

    @settings(max_examples=60)
    @given(curve=quantile_curves(), total=QUOTAS)
    def test_counts_are_a_full_non_negative_quota(self, curve, total):
        counts, _, _ = closed_form_histogram(curve, self.edges, total)
        assert counts.shape == (self.edges.size + 1,)
        assert np.all(counts >= 0)
        assert int(counts.sum()) == total

    @settings(max_examples=60)
    @given(curve=quantile_curves(), total=QUOTAS)
    def test_sum_is_the_quota_times_the_curve_mean(self, curve, total):
        grid = quantile_grid()
        trapezoid = float(np.sum((curve[1:] + curve[:-1]) / 2.0 * np.diff(grid)))
        tail = (1.0 - QUANTILE_GRID_MAX) * curve[-1]
        _, total_sum, maximum = closed_form_histogram(curve, self.edges, total)
        assert total_sum == pytest.approx(total * (trapezoid + tail), rel=1e-12)
        assert maximum == curve[-1]

    @settings(max_examples=60)
    @given(curve=quantile_curves(), total=QUOTAS)
    def test_memoised_result_is_the_reference_bit_for_bit(self, curve, total):
        counts, total_sum, maximum = closed_form_histogram(curve, self.edges, total)
        want_counts, want_sum, want_max = reference_closed_form_histogram(
            curve, self.edges, total
        )
        assert counts.dtype == want_counts.dtype
        assert np.array_equal(counts, want_counts)
        assert total_sum.hex() == want_sum.hex()
        assert maximum.hex() == want_max.hex()

    def test_counts_are_read_only(self):
        curve = np.linspace(0.001, 0.02, QUANTILE_POINTS)
        counts, _, _ = closed_form_histogram(curve, self.edges, 1000)
        with pytest.raises(ValueError):
            counts[0] = 1

    def test_memo_is_keyed_on_content_not_identity(self):
        curve = np.linspace(0.002, 0.03, QUANTILE_POINTS)
        first, _, _ = closed_form_histogram(curve.copy(), self.edges, 4096)
        equal, _, _ = closed_form_histogram(curve.copy(), self.edges, 4096)
        assert equal is first
        nudged = curve.copy()
        nudged[64] = np.nextafter(nudged[64], np.inf)
        apart, _, _ = closed_form_histogram(nudged, self.edges, 4096)
        assert apart is not first
        other_quota, _, _ = closed_form_histogram(curve.copy(), self.edges, 4097)
        assert other_quota is not first
