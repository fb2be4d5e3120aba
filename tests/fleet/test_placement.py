"""Unit tests for the secondary placement scheduler."""

import pytest

from repro.errors import ConfigError
from repro.fleet.placement import (
    MachineCapacity,
    PlacementDemand,
    plan_placement,
)


def machines(*cores):
    return [MachineCapacity(f"m{i:03d}", c) for i, c in enumerate(cores)]

def demands(*cores):
    return [PlacementDemand(f"j{i:03d}", c) for i, c in enumerate(cores)]


class TestFirstFit:
    def test_packs_in_machine_order(self):
        plan = plan_placement(machines(8, 8), demands(4, 4, 4))
        by_machine = plan.placed_cores_by_machine()
        assert by_machine == {"m000": 8, "m001": 4}
        assert not plan.unplaced

    def test_larger_jobs_place_first(self):
        # The 6-core job would be blocked if the 2-core jobs went first.
        plan = plan_placement(machines(8), demands(2, 2, 6))
        assert plan.total_placed_cores == 8
        assert [a.job for a in plan.assignments] == ["j002", "j000"]
        assert [d.name for d in plan.unplaced] == ["j001"]

    def test_overflow_goes_unplaced_not_overcommitted(self):
        plan = plan_placement(machines(4, 4), demands(3, 3, 3))
        assert plan.total_placed_cores == 6
        assert len(plan.unplaced) == 1
        for machine, cores in plan.placed_cores_by_machine().items():
            assert cores <= 4

    def test_zero_capacity_machines_host_nothing(self):
        plan = plan_placement(machines(0, 5), demands(5))
        assert plan.placed_cores_by_machine() == {"m001": 5}

    def test_small_jobs_back_fill_earlier_machines(self):
        plan = plan_placement(machines(5, 8), demands(4, 4, 1))
        assert [(a.machine, a.job) for a in plan.assignments] == [
            ("m000", "j000"),
            ("m001", "j001"),
            ("m000", "j002"),
        ]
        assert plan.placed_cores_by_machine() == {"m000": 5, "m001": 4}

    def test_equal_size_run_fills_slots_in_order_then_stops(self):
        plan = plan_placement(machines(13, 0, 7), demands(*[3] * 10))
        assert [a.machine for a in plan.assignments] == ["m000"] * 4 + ["m002"] * 2
        assert [d.name for d in plan.unplaced] == [f"j{i:03d}" for i in range(6, 10)]


class TestStrategies:
    def test_best_fit_prefers_tightest_machine(self):
        plan = plan_placement(machines(10, 4), demands(3), strategy="best_fit")
        assert plan.placed_cores_by_machine() == {"m001": 3}

    def test_worst_fit_prefers_emptiest_machine(self):
        plan = plan_placement(machines(10, 4), demands(3), strategy="worst_fit")
        assert plan.placed_cores_by_machine() == {"m000": 3}

    def test_ties_break_on_canonical_machine_order(self):
        for strategy in ("first_fit", "best_fit", "worst_fit"):
            plan = plan_placement(machines(6, 6), demands(2), strategy=strategy)
            assert plan.placed_cores_by_machine() == {"m000": 2}, strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            plan_placement(machines(4), demands(2), strategy="magic")


class TestDeterminism:
    def test_permutation_of_inputs_yields_identical_plan(self):
        ms = machines(5, 9, 2, 7)
        js = demands(4, 1, 6, 3, 2)
        baseline = plan_placement(ms, js)
        shuffled = plan_placement(list(reversed(ms)), list(reversed(js)))
        assert shuffled == baseline

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            plan_placement([MachineCapacity("m", 4), MachineCapacity("m", 4)], demands(1))
        with pytest.raises(ConfigError, match="unique"):
            plan_placement(machines(4), [PlacementDemand("j", 1), PlacementDemand("j", 2)])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            MachineCapacity("m0", -1)
        with pytest.raises(ConfigError):
            PlacementDemand("j0", 0)
        with pytest.raises(ConfigError):
            MachineCapacity("", 1)
        with pytest.raises(ConfigError):
            PlacementDemand("", 1)
