"""Golden-output regression suite for the fleet tier.

Every case is a small seeded fleet whose ``FleetResult.summary()`` and
``rows()`` are pinned against a checked-in JSON file under
``tests/fleet/goldens/``.  Together the cases cover first-, best- and
worst-fit placement, canary stages that leave jobs unplaced, three machine
groups cut into several shards each, exact and sampled mode, a guardrail
halt and a fault plan, so a rewrite of placement, sampling or rollout that
moves any reported number fails here.

When a change intentionally moves the numbers, regenerate the files and review
the diff like any other code change:

    python -m pytest tests/fleet/test_fleet_goldens.py --update-goldens

Floats are compared at rel=1e-9, as in ``tests/experiments/test_goldens.py``.
"""

import json
from pathlib import Path

import pytest

from repro.config.schema import (
    ControllerCrashSpec,
    DegradedCoreSpec,
    FaultPlanSpec,
    MachineFaultSpec,
    PlacementSpec,
)
from repro.fleet.scenarios import fleet_guardrail_breach
from repro.fleet.simulate import FleetSimulation
from repro.runtime.spec_hash import spec_hash

from fleet_testing import make_tiny_fleet_spec

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Mixed explicit job sizes: large jobs leave remainders that small ones
#: back-fill, and the canary stages cannot host most of the queue.
MIXED_JOBS = (10, 9, 7, 6, 6, 5, 4, 3, 3, 2, 1) * 12

CASES = {
    "first-fit-exact": lambda: make_tiny_fleet_spec(machines=120, stages=3).replace(
        shard_machines=16
    ),
    "first-fit-sampled": lambda: make_tiny_fleet_spec(
        machines=240,
        stages=3,
        samples_per_machine_bucket=64,
        sample_fraction=0.2,
        min_sampled_machines=16,
    ).replace(shard_machines=32),
    "best-fit-mixed-jobs": lambda: make_tiny_fleet_spec(machines=96, stages=3).replace(
        placement=PlacementSpec(strategy="best_fit", job_cores=MIXED_JOBS),
        shard_machines=16,
    ),
    "worst-fit-sampled": lambda: make_tiny_fleet_spec(
        machines=160,
        stages=3,
        strategy="worst_fit",
        samples_per_machine_bucket=64,
        sample_fraction=0.25,
        min_sampled_machines=16,
    ).replace(shard_machines=24),
    "worst-fit-mixed-jobs-sampled": lambda: make_tiny_fleet_spec(
        machines=200,
        stages=2,
        samples_per_machine_bucket=64,
        sample_fraction=0.3,
        min_sampled_machines=16,
    ).replace(
        placement=PlacementSpec(strategy="worst_fit", job_cores=MIXED_JOBS),
        shard_machines=20,
    ),
    "guardrail-breach": lambda: fleet_guardrail_breach().replace(shard_machines=8),
    "chaos-sampled": lambda: make_tiny_fleet_spec(
        machines=144,
        stages=3,
        samples_per_machine_bucket=64,
        sample_fraction=0.3,
        min_sampled_machines=16,
        faults=FaultPlanSpec(
            machines=MachineFaultSpec(crash_rate_per_hour=40.0, mean_downtime=60.0),
            degraded=DegradedCoreSpec(
                slowdown=1.8, start=60.0, duration=240.0, fraction_of_machines=0.2
            ),
            controller_crash=ControllerCrashSpec(at=150.0, recovery_delay=5.0),
        ),
    ).replace(shard_machines=16),
}


def run_case(case: str, runner) -> dict:
    spec = CASES[case]()
    result = FleetSimulation(spec, runner=runner).run()
    return {
        "case": case,
        "spec_hash": spec_hash(spec),
        "summary": result.summary(),
        "rows": result.rows(),
    }


def assert_matches(case: str, where: str, observed, expected) -> None:
    if isinstance(expected, dict):
        assert isinstance(observed, dict) and set(observed) == set(expected), (
            f"{case}: keys of {where} changed; if intentional, re-run with --update-goldens"
        )
        for key in expected:
            assert_matches(case, f"{where}.{key}", observed[key], expected[key])
    elif isinstance(expected, list):
        assert isinstance(observed, list) and len(observed) == len(expected), (
            f"{case}: length of {where} changed; if intentional, re-run with --update-goldens"
        )
        for index, (got, want) in enumerate(zip(observed, expected)):
            assert_matches(case, f"{where}[{index}]", got, want)
    elif isinstance(expected, float):
        assert observed == pytest.approx(expected, rel=1e-9, abs=1e-12), (
            f"{case}: {where} drifted from the golden value ({observed!r} != "
            f"{expected!r}); if intentional, re-run with --update-goldens and commit"
        )
    else:
        assert observed == expected, f"{case}: {where} changed ({observed!r} != {expected!r})"


@pytest.mark.parametrize("case", sorted(CASES))
def test_fleet_golden(case, fleet_runner, update_goldens):
    golden_path = GOLDEN_DIR / f"{case}.json"
    observed = json.loads(json.dumps(run_case(case, fleet_runner)))

    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        return

    assert golden_path.is_file(), (
        f"missing golden file {golden_path.name}; generate it with "
        f"`python -m pytest {__file__} --update-goldens` and commit the result"
    )
    golden = json.loads(golden_path.read_text())
    assert observed["spec_hash"] == golden["spec_hash"], (
        f"{case}: the fleet spec changed (its hash no longer matches the "
        "golden); if intentional, re-run with --update-goldens and commit"
    )
    assert_matches(case, "summary", observed["summary"], golden["summary"])
    assert_matches(case, "rows", observed["rows"], golden["rows"])


def test_fleet_golden_files_have_no_strays():
    """Every checked-in golden corresponds to a defined case (and vice versa)."""
    files = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert files == set(CASES), (
        f"golden files and cases diverge: extra={sorted(files - set(CASES))}, "
        f"missing={sorted(set(CASES) - files)}"
    )
