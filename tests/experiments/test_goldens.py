"""Golden-metrics regression suite for the core paper scenarios.

Every case is a short, seeded single-machine run whose full metrics dictionary
is pinned against a checked-in JSON file under ``tests/experiments/goldens/``.
The simulator is deterministic per seed, so any diff here means the simulated
*numbers* moved — a refactor that was supposed to be behaviour-preserving
was not, or a model change landed without acknowledging its effect.

When a change intentionally moves the numbers, regenerate the files and review
the diff like any other code change:

    python -m pytest tests/experiments/test_goldens.py --update-goldens

Floats are compared at rel=1e-9 (not bit-exactly) so a different BLAS/SIMD
build of numpy cannot fail the suite, while anything a human would call a
drift still does.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import scenarios as sc
from repro.experiments.single_machine import SingleMachineExperiment
from repro.runtime.spec_hash import spec_hash

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Shared workload shape: short enough for the fast tier, long enough that
#: tail percentiles are stable.
GOLDEN_PARAMS = dict(qps=600.0, duration=1.0, warmup=0.2, seed=5)

#: The trace-driven builders own their rates, so the golden runs scale the
#: rate parameters down explicitly instead of passing ``qps``.
SHORT = dict(duration=1.0, warmup=0.2, seed=5)

CASES = {
    "standalone": lambda: sc.standalone(**GOLDEN_PARAMS),
    "no-isolation-mid": lambda: sc.no_isolation(sc.MID_BULLY_THREADS, **GOLDEN_PARAMS),
    "no-isolation-high": lambda: sc.no_isolation(sc.HIGH_BULLY_THREADS, **GOLDEN_PARAMS),
    "blind-isolation-mid": lambda: sc.blind_isolation(
        8, sc.MID_BULLY_THREADS, **GOLDEN_PARAMS
    ),
    "blind-isolation-high": lambda: sc.blind_isolation(
        8, sc.HIGH_BULLY_THREADS, **GOLDEN_PARAMS
    ),
    "static-cores-high": lambda: sc.static_cores(8, sc.HIGH_BULLY_THREADS, **GOLDEN_PARAMS),
    "cpu-cycles-high": lambda: sc.cpu_cycles(0.05, sc.HIGH_BULLY_THREADS, **GOLDEN_PARAMS),
    # --------------------------------------------- trace-driven workloads
    "diurnal-cycle": lambda: sc.diurnal_cycle(
        phase_offset=0.0, peak_qps=900.0, trough_qps=300.0, **SHORT
    ),
    "diurnal-trough": lambda: sc.diurnal_trough_reclamation(
        buffer_cores=8, peak_qps=900.0, trough_qps=300.0, **SHORT
    ),
    "flash-crowd-blind": lambda: sc.flash_crowd_blind_isolation(
        spike_qps=1500.0, base_qps=500.0, **SHORT
    ),
    "flash-crowd-none": lambda: sc.controller_showdown(
        policy="none", workload="flash_crowd", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    "bursty-blind": lambda: sc.bursty_blind_isolation(
        burst_qps=1500.0, base_qps=500.0, **SHORT
    ),
    "bursty-none": lambda: sc.controller_showdown(
        policy="none", workload="bursty", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    "trace-showdown-blind": lambda: sc.controller_showdown(
        policy="blind", workload="trace", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    "trace-showdown-none": lambda: sc.controller_showdown(
        policy="none", workload="trace", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    "trace-standalone": lambda: sc.replayed_trace_standalone(
        peak_qps=900.0, trough_qps=300.0, **SHORT
    ),
    # ------------------------------------------- dynamic controller arena
    "controller-pid": lambda: sc.controller_showdown(
        policy="pid", workload="flash_crowd", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    "controller-mpc": lambda: sc.controller_showdown(
        policy="mpc", workload="bursty", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    "controller-utilization": lambda: sc.controller_showdown(
        policy="utilization", workload="diurnal", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    "controller-oracle": lambda: sc.controller_showdown(
        policy="oracle", workload="trace", base_qps=500.0, peak_qps=1500.0, **SHORT
    ),
    # ------------------------------------------------ chaos fault injection
    "chaos-controller-crash": lambda: sc.chaos_controller_crash(**GOLDEN_PARAMS),
    "chaos-telemetry-missing": lambda: sc.chaos_telemetry_dropout(
        mode="missing", **GOLDEN_PARAMS
    ),
    "chaos-telemetry-frozen": lambda: sc.chaos_telemetry_dropout(
        mode="frozen", **GOLDEN_PARAMS
    ),
    "chaos-degraded-cores": lambda: sc.chaos_degraded_cores(
        slowdown=1.5, **GOLDEN_PARAMS
    ),
}


def run_case(case: str) -> dict:
    spec = CASES[case]()
    result = SingleMachineExperiment(spec, scenario=case).run()
    metrics = dict(result.summary())
    metrics.update(
        queries_submitted=result.queries_submitted,
        queries_completed=result.queries_completed,
        queries_dropped=result.queries_dropped,
        secondary_cpu_seconds=result.secondary_cpu_seconds,
        controller_polls=result.controller_polls,
        controller_updates=result.controller_updates,
    )
    for name, entry in sorted(result.secondary_breakdown.items()):
        metrics[f"progress:{name}"] = entry["progress"]
        metrics[f"cpu_seconds:{name}"] = entry["cpu_seconds"]
    return {"case": case, "spec_hash": spec_hash(spec), "metrics": metrics}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_metrics(case, update_goldens):
    golden_path = GOLDEN_DIR / f"{case}.json"
    observed = run_case(case)

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
        f"{case}: the scenario's spec changed (its hash no longer matches the "
        "golden); if intentional, re-run with --update-goldens and commit"
    )
    assert set(observed["metrics"]) == set(golden["metrics"]), (
        f"{case}: metric keys changed; if intentional, re-run with --update-goldens"
    )
    for key, expected in golden["metrics"].items():
        value = observed["metrics"][key]
        if isinstance(expected, float):
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12), (
                f"{case}: metric {key!r} drifted from the golden value "
                f"({value!r} != {expected!r}); if intentional, re-run with "
                "--update-goldens and commit the diff"
            )
        else:
            assert value == expected, (
                f"{case}: metric {key!r} changed ({value!r} != {expected!r})"
            )


def test_golden_files_have_no_strays():
    """Every checked-in golden corresponds to a defined case (and vice versa)."""
    files = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert files == set(CASES), (
        f"golden files and cases diverge: extra={sorted(files - set(CASES))}, "
        f"missing={sorted(set(CASES) - files)}"
    )
