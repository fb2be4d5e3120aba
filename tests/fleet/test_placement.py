"""Unit tests for the secondary placement scheduler."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fleet.placement import plan_placement


def names_for(count):
    return [f"m{i:03d}" for i in range(count)]


def place(capacities, sizes, strategy="first_fit", names=None):
    names = names_for(len(capacities)) if names is None else names
    return plan_placement(names, capacities, sizes, strategy)


def by_machine(plan, names=None):
    """The machines hosting anything, with their placed cores."""
    names = names_for(plan.placed_cores.size) if names is None else names
    return {name: cores for name, cores in zip(names, plan.placed_cores.tolist()) if cores}


def by_size(plan):
    """Per job size: (placed, unplaced) job counts."""
    return {
        size: (placed, unplaced)
        for size, placed, unplaced in zip(
            plan.sizes.tolist(), plan.placed.tolist(), plan.unplaced.tolist()
        )
    }


class TestFirstFit:
    def test_packs_in_machine_order(self):
        plan = place([8, 8], [4, 4, 4])
        assert by_machine(plan) == {"m000": 8, "m001": 4}
        assert plan.unplaced_jobs == 0

    def test_larger_jobs_place_first(self):
        # The 6-core job would be blocked if the 2-core jobs went first.
        plan = place([8], [2, 2, 6])
        assert plan.total_placed_cores == 8
        assert by_size(plan) == {6: (1, 0), 2: (1, 1)}
        assert (plan.placed_jobs, plan.unplaced_jobs) == (2, 1)

    def test_overflow_goes_unplaced_not_overcommitted(self):
        plan = place([4, 4], [3, 3, 3])
        assert plan.total_placed_cores == 6
        assert plan.unplaced_jobs == 1
        assert (plan.placed_cores <= 4).all()

    def test_zero_capacity_machines_host_nothing(self):
        assert by_machine(place([0, 5], [5])) == {"m001": 5}

    def test_small_jobs_back_fill_earlier_machines(self):
        # The 4s fill m000 to 1 free core and m001 to 4; the 1 goes back to m000.
        plan = place([5, 8], [4, 4, 1])
        assert by_machine(plan) == {"m000": 5, "m001": 4}
        assert plan.unplaced_jobs == 0

    def test_equal_size_run_fills_slots_in_order_then_stops(self):
        plan = place([13, 0, 7], [3] * 10)
        assert plan.placed_cores.tolist() == [12, 0, 6]
        assert by_size(plan) == {3: (6, 4)}

    def test_no_machines_leaves_every_job_unplaced(self):
        plan = place([], [4, 2, 2])
        assert plan.placed_cores.size == 0
        assert by_size(plan) == {4: (0, 1), 2: (0, 2)}

    def test_no_jobs_places_nothing(self):
        plan = place([4, 4], [])
        assert plan.placed_cores.tolist() == [0, 0]
        assert (plan.placed_jobs, plan.unplaced_jobs) == (0, 0)


class TestStrategies:
    def test_best_fit_prefers_tightest_machine(self):
        assert by_machine(place([10, 4], [3], strategy="best_fit")) == {"m001": 3}

    def test_worst_fit_prefers_emptiest_machine(self):
        assert by_machine(place([10, 4], [3], strategy="worst_fit")) == {"m000": 3}

    def test_ties_break_on_canonical_machine_order(self):
        for strategy in ("first_fit", "best_fit", "worst_fit"):
            plan = place([6, 6], [2], strategy=strategy)
            assert by_machine(plan) == {"m000": 2}, strategy

    def test_name_order_is_string_order_not_index_order(self):
        """Fleet machine names zero-pad to five digits, so a six-digit index
        sorts first: ``g-100000`` precedes ``g-99999`` on every tie."""
        names = ["g-99999", "g-100000"]
        for strategy in ("first_fit", "best_fit", "worst_fit"):
            plan = place([6, 6], [4], strategy=strategy, names=names)
            assert by_machine(plan, names) == {"g-100000": 4}, strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            place([4], [2], strategy="magic")


class TestDeterminism:
    def test_permutation_of_inputs_yields_identical_plan(self):
        capacities = [5, 9, 2, 7]
        sizes = [4, 1, 6, 3, 2]
        baseline = place(capacities, sizes)
        names = names_for(len(capacities))
        shuffled = plan_placement(names[::-1], capacities[::-1], sizes[::-1])
        assert by_machine(shuffled, names[::-1]) == by_machine(baseline)
        assert by_size(shuffled) == by_size(baseline)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            plan_placement(["m", "m"], [4, 4], [1])

    def test_duplicate_in_a_fleet_sized_list_is_named(self):
        """Regression: the duplicate report counted every name against the
        whole list, so 50,000 machines with one duplicate took about a
        minute to raise."""
        names = [f"g-{index:05d}" for index in range(50_000)] + ["g-31337"]
        with pytest.raises(ConfigError, match=r"duplicated: \['g-31337'\]"):
            plan_placement(names, np.zeros(len(names), dtype=np.int64), [1])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError, match="capacity"):
            plan_placement(["m0"], [-1], [1])
        with pytest.raises(ConfigError, match="at least one core"):
            plan_placement(["m0"], [4], [0])
        with pytest.raises(ConfigError, match="non-empty"):
            plan_placement([""], [1], [1])
        with pytest.raises(ConfigError, match="one capacity per machine"):
            plan_placement(["m0", "m1"], [4], [1])
