"""Property-based tests (hypothesis) for the placement scheduler.

The invariants the fleet's capacity story rests on:

* placement never overcommits — no machine hosts more cores than its
  reclaimable-capacity estimate, under any strategy;
* placement is a pure function of the *set* of inputs — permuting the
  machine or demand sequences yields the identical plan;
* under first-fit, removing a machine never *increases* the total demand
  placed (capacity loss cannot conjure capacity);
* the array-packed scheduler returns exactly the plan of the historical
  job-at-a-time loop, kept verbatim below as the oracle.
"""

from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import PlacementSpec
from repro.errors import ConfigError
from repro.fleet.placement import (
    Assignment,
    MachineCapacity,
    PlacementDemand,
    PlacementPlan,
    plan_placement,
)


def _canonical_demands(demands: Sequence[PlacementDemand]) -> List[PlacementDemand]:
    names = [demand.name for demand in demands]
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ConfigError(f"placement job names must be unique, duplicated: {duplicates}")
    return sorted(demands, key=lambda demand: (-demand.cores, demand.name))


def _canonical_machines(machines: Sequence[MachineCapacity]) -> List[MachineCapacity]:
    names = [machine.machine for machine in machines]
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ConfigError(f"machine names must be unique, duplicated: {duplicates}")
    return sorted(machines, key=lambda machine: machine.machine)


def historical_plan_placement(
    machines: Sequence[MachineCapacity],
    demands: Sequence[PlacementDemand],
    strategy: str = "first_fit",
) -> PlacementPlan:
    """The pre-vectorisation scalar scheduler, verbatim."""
    if strategy not in PlacementSpec.VALID_STRATEGIES:
        raise ConfigError(
            f"placement strategy must be one of {PlacementSpec.VALID_STRATEGIES}, "
            f"got {strategy!r}"
        )
    ordered_demands = _canonical_demands(demands)
    ordered_machines = _canonical_machines(machines)

    # ``active`` keeps (name, remaining) in canonical order.  Machines whose
    # remaining capacity falls below the smallest *future* demand can never
    # host anything again (demands are processed in decreasing size), so the
    # first-fit scan drops them as it passes — the common homogeneous-job
    # case then packs in near-linear time instead of O(jobs x machines).
    active: List[List[object]] = [[m.machine, m.cores] for m in ordered_machines]
    suffix_min = [0] * len(ordered_demands)
    smallest = None
    for index in range(len(ordered_demands) - 1, -1, -1):
        cores = ordered_demands[index].cores
        smallest = cores if smallest is None else min(smallest, cores)
        suffix_min[index] = smallest

    assignments: List[Assignment] = []
    unplaced: List[PlacementDemand] = []
    for index, demand in enumerate(ordered_demands):
        floor = suffix_min[index]
        chosen = None
        if strategy == "first_fit":
            scan = 0
            while scan < len(active):
                name, remaining = active[scan]
                if remaining < floor:
                    active.pop(scan)
                    continue
                if remaining >= demand.cores:
                    chosen = scan
                    break
                scan += 1
        else:
            best_remaining = None
            for position, (name, remaining) in enumerate(active):
                if remaining < demand.cores:
                    continue
                better = (
                    best_remaining is None
                    or (strategy == "best_fit" and remaining < best_remaining)
                    or (strategy == "worst_fit" and remaining > best_remaining)
                )
                if better:
                    best_remaining = remaining
                    chosen = position
        if chosen is None:
            unplaced.append(demand)
            continue
        slot = active[chosen]
        assignments.append(Assignment(machine=slot[0], job=demand.name, cores=demand.cores))
        slot[1] -= demand.cores

    return PlacementPlan(assignments=tuple(assignments), unplaced=tuple(unplaced))


@st.composite
def placement_cases(draw):
    machine_count = draw(st.integers(min_value=1, max_value=10))
    machines = [
        MachineCapacity(f"m{index:03d}", draw(st.integers(min_value=0, max_value=24)))
        for index in range(machine_count)
    ]
    demand_count = draw(st.integers(min_value=0, max_value=14))
    demands = [
        PlacementDemand(f"j{index:03d}", draw(st.integers(min_value=1, max_value=12)))
        for index in range(demand_count)
    ]
    return machines, demands


@st.composite
def wide_placement_cases(draw):
    """Bigger and more varied than ``placement_cases``: long runs of
    equal-size jobs, many zero-capacity machines, mixed sizes whose small
    jobs back-fill machines the large ones left partly free, and names that
    are not in input order."""
    capacities = draw(
        st.lists(st.one_of(st.just(0), st.integers(min_value=0, max_value=40)), max_size=40)
    )
    size = st.integers(min_value=1, max_value=16)
    run_length = st.integers(min_value=1, max_value=60)
    runs = draw(st.lists(st.tuples(size, run_length), max_size=6))
    sizes = [cores for cores, length in runs for _ in range(length)]
    machine_ids = draw(st.permutations(range(len(capacities))))
    job_ids = draw(st.permutations(range(len(sizes))))
    machines = [
        MachineCapacity(f"m{machine_ids[index]:03d}", cores)
        for index, cores in enumerate(capacities)
    ]
    demands = [
        PlacementDemand(f"j{job_ids[index]:04d}", size) for index, size in enumerate(sizes)
    ]
    return machines, demands


@settings(max_examples=200, deadline=None)
@given(
    case=st.one_of(placement_cases(), wide_placement_cases()),
    strategy=st.sampled_from(PlacementSpec.VALID_STRATEGIES),
)
def test_plan_equals_the_historical_scalar_loop(case, strategy):
    machines, demands = case
    assert plan_placement(machines, demands, strategy) == historical_plan_placement(
        machines, demands, strategy
    )


def test_fleet_scale_first_fit_equals_the_historical_scalar_loop():
    # Two job sizes over mixed capacities: the large run leaves remainders
    # the small run back-fills, then the queue overflows.
    machines = [MachineCapacity(f"m{index:05d}", index % 13) for index in range(3000)]
    demands = [
        PlacementDemand(f"j{index:05d}", 5 if index % 3 else 2) for index in range(12000)
    ]
    plan = plan_placement(machines, demands)
    assert plan.unplaced and plan.placed_jobs > 0
    assert plan == historical_plan_placement(machines, demands)


@settings(max_examples=200, deadline=None)
@given(case=placement_cases(), strategy=st.sampled_from(PlacementSpec.VALID_STRATEGIES))
def test_no_machine_exceeds_its_reclaimable_capacity(case, strategy):
    machines, demands = case
    plan = plan_placement(machines, demands, strategy)
    capacities = {machine.machine: machine.cores for machine in machines}
    for machine, cores in plan.placed_cores_by_machine().items():
        assert cores <= capacities[machine]
    # Conservation: every demand is either assigned exactly once or unplaced.
    assigned = [assignment.job for assignment in plan.assignments]
    pending = [demand.name for demand in plan.unplaced]
    assert sorted(assigned + pending) == sorted(demand.name for demand in demands)


@settings(max_examples=200, deadline=None)
@given(
    case=placement_cases(),
    strategy=st.sampled_from(PlacementSpec.VALID_STRATEGIES),
    data=st.data(),
)
def test_placement_is_deterministic_under_input_permutation(case, strategy, data):
    machines, demands = case
    baseline = plan_placement(machines, demands, strategy)
    shuffled_machines = data.draw(st.permutations(machines))
    shuffled_demands = data.draw(st.permutations(demands))
    assert plan_placement(shuffled_machines, shuffled_demands, strategy) == baseline


@settings(max_examples=200, deadline=None)
@given(case=placement_cases(), data=st.data())
def test_removing_a_machine_never_increases_placed_demand(case, data):
    machines, demands = case
    full = plan_placement(machines, demands, "first_fit")
    removed = data.draw(st.integers(min_value=0, max_value=len(machines) - 1))
    remaining = machines[:removed] + machines[removed + 1 :]
    reduced = plan_placement(remaining, demands, "first_fit")
    assert reduced.total_placed_cores <= full.total_placed_cores
    # And the removed machine's jobs never overcommit the survivors.
    capacities = {machine.machine: machine.cores for machine in remaining}
    for machine, cores in reduced.placed_cores_by_machine().items():
        assert cores <= capacities[machine]
