"""The benchmark's three workloads: what each builds, times and checks.

Every workload is a batch job run as a closed loop: one client, one job at a
time.  ``setup`` builds the inputs from the seed (and, for the warm fleet,
primes the cache); ``run`` is the timed call; ``check`` returns the list of
failed output checks; ``fingerprint`` hashes the deterministic outputs.
Nothing here is timed or traced: ``rep.py`` does that around these calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.experiments import figures
from repro.fleet.scenarios import fleet_hyperscale
from repro.fleet.simulate import FleetSimulation
from repro.runtime import ExperimentRunner, ResultCache

#: Figure 8's run length, as in ``benchmarks/test_fig8_comparison.py``.
FIG8_DURATION = 4.0
FIG8_WARMUP = 0.5
FIG8_APPROACHES = ("standalone", "no_isolation", "blind_isolation", "cpu_cores", "cpu_cycles")

#: Worker processes of the hyperscale runner (the 2-CPU reference host's nproc).
FLEET_WORKERS = 2
FLEET_MACHINES = 50_000
FLEET_STAGES = 3
FLEET_MACHINE_BUCKETS = 600_000


@dataclass(frozen=True)
class Workload:
    #: Worker processes of the timed run's runner.
    workers: int
    #: Units of work per timed run, and their name, for the throughput line.
    work: float
    work_unit: str
    setup: Callable[[int, int], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Any]
    check: Callable[[Dict[str, Any], Any], List[str]]
    summary: Callable[[Any], Any]
    #: Whether one process may time several runs: only where set-up leaves
    #: exactly the state each run must start from, as the primed cache of the
    #: warm fleet, whose priming costs twice a timed run.
    repeatable: bool = False


def fingerprint(summary: Any) -> str:
    """sha256 of a run's deterministic outputs in canonical JSON."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------- fig8
def _fig8_setup(seed: int, workers: int) -> Dict[str, Any]:
    return {
        "seed": seed,
        "runner": ExperimentRunner(max_workers=workers, cache=ResultCache(), use_cache=False),
    }


def _fig8_run(state: Dict[str, Any]) -> Any:
    return figures.fig8_comparison(
        duration=FIG8_DURATION, warmup=FIG8_WARMUP, seed=state["seed"], runner=state["runner"]
    )


def _fig8_check(state: Dict[str, Any], figure: Any) -> List[str]:
    """The Figure 8 orderings ``benchmarks/test_fig8_comparison.py`` asserts."""
    rows = {row["approach"]: row for row in figure.rows}
    missing = [name for name in FIG8_APPROACHES if name not in rows]
    if missing:
        return [f"fig8 rows missing: {missing}"]
    failures = [
        f"fig8 {name}.{key} is not finite"
        for name in FIG8_APPROACHES
        for key, value in rows[name].items()
        if key != "approach" and not math.isfinite(value)
    ]
    standalone, no_isolation, blind, cores, cycles = (rows[name] for name in FIG8_APPROACHES)
    orderings = {
        "no_isolation p99 > 5 x standalone": no_isolation["p99_ms"] > 5.0 * standalone["p99_ms"],
        "blind p99 within 2 ms of standalone": blind["p99_ms"] < standalone["p99_ms"] + 2.0,
        "cores p99 within 2 ms of standalone": cores["p99_ms"] < standalone["p99_ms"] + 2.0,
        "blind idle < cores idle": blind["idle_cpu_pct"] < cores["idle_cpu_pct"],
        "progress blind > cores > cycles": blind["secondary_progress"]
        > cores["secondary_progress"]
        > cycles["secondary_progress"],
        "blind relative progress > 40%": blind["relative_progress_pct"] > 40.0,
        "cycles relative progress < 15%": cycles["relative_progress_pct"] < 15.0,
    }
    failures.extend(f"fig8 ordering failed: {name}" for name, ok in orderings.items() if not ok)
    return failures


# ----------------------------------------------------------------- hyperscale
def _fleet_setup(seed: int, workers: int) -> Dict[str, Any]:
    return {
        "seed": seed,
        "runner": ExperimentRunner(max_workers=workers, cache=ResultCache()),
    }


def _fleet_warm_setup(seed: int, workers: int) -> Dict[str, Any]:
    """Prime the cache with a cold run on all workers; the timed re-run may
    use another worker count against the same cache."""
    state = _fleet_setup(seed, FLEET_WORKERS)
    primed = FleetSimulation(fleet_hyperscale(seed=seed), runner=state["runner"]).run()
    state["primed_summary"] = _fleet_summary(primed)
    if workers != FLEET_WORKERS:
        state["runner"] = ExperimentRunner(max_workers=workers, cache=state["runner"].cache)
    return state


def _fleet_run(state: Dict[str, Any]) -> Any:
    # A fresh spec per run, as a new invocation builds it: no hash memo rides along.
    return FleetSimulation(fleet_hyperscale(seed=state["seed"]), runner=state["runner"]).run()


def _fleet_summary(result: Any) -> Any:
    return {"summary": result.summary(), "rows": result.rows()}


def _fleet_check(state: Dict[str, Any], result: Any) -> List[str]:
    failures = []
    if result.status != "completed":
        failures.append(f"fleet status is {result.status!r}, not 'completed'")
    if result.stages_completed != FLEET_STAGES:
        failures.append(f"fleet completed {result.stages_completed} of {FLEET_STAGES} stages")
    if result.machine_buckets != FLEET_MACHINE_BUCKETS:
        failures.append(f"fleet machine_buckets is {result.machine_buckets}")
    reclaimed = result.reclaimed_core_hours
    if not (math.isfinite(reclaimed) and reclaimed > 0.0):
        failures.append(f"fleet reclaimed_core_hours is {reclaimed}")
    primed = state.get("primed_summary")
    if primed is not None and fingerprint(primed) != fingerprint(_fleet_summary(result)):
        failures.append("warm fleet result differs from the cold run that primed its cache")
    return failures


WORKLOADS: Dict[str, Workload] = {
    "fig8": Workload(
        workers=1,
        work=len(FIG8_APPROACHES) * (FIG8_DURATION + FIG8_WARMUP),
        work_unit="sim_s",
        setup=_fig8_setup,
        run=_fig8_run,
        check=_fig8_check,
        summary=lambda figure: figure.rows,
    ),
    "hyperscale-cold": Workload(
        workers=FLEET_WORKERS,
        work=FLEET_MACHINES,
        work_unit="machines",
        setup=_fleet_setup,
        run=_fleet_run,
        check=_fleet_check,
        summary=_fleet_summary,
    ),
    "hyperscale-warm": Workload(
        workers=FLEET_WORKERS,
        work=FLEET_MACHINES,
        work_unit="machines",
        setup=_fleet_warm_setup,
        run=_fleet_run,
        check=_fleet_check,
        summary=_fleet_summary,
        repeatable=True,
    ),
}
