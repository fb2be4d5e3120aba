"""Fleet operations: staged PerfIso rollout, placement and accounting.

The paper's headline result is operational — PerfIso rolled out across tens
of thousands of IndexServe machines, harvesting idle capacity for batch work
while holding the tail.  This package simulates that operation end to end:

* :mod:`repro.fleet.model` — heterogeneous machine groups with per-row
  diurnal load phases, calibrated through the shared experiment runner;
* :mod:`repro.fleet.placement` — deterministic bin-packing of batch job
  sizes onto per-machine reclaimable-capacity arrays;
* :mod:`repro.fleet.rollout` — canary -> wave -> fleet staging with SLO
  guardrails over the versioned configuration store (``ConfigStore``);
* :mod:`repro.fleet.accounting` — reclaimed core-hours, batch throughput and
  SLO-violation minutes folded from mergeable latency digests;
* :mod:`repro.fleet.simulate` — sharded execution over the parallel runtime;
* :mod:`repro.fleet.cli` — the ``python -m repro.fleet`` entry point.
"""

from .accounting import FleetResult, StageAccount
from .model import FleetModel, GroupCalibration, ModeCalibration
from .placement import PlacementPlan, plan_placement
from .rollout import GuardrailMonitor, StageDecision, StagedRollout
from .scenarios import default_fleet_spec
from .simulate import FleetSimulation

__all__ = [
    "FleetResult",
    "StageAccount",
    "FleetModel",
    "GroupCalibration",
    "ModeCalibration",
    "PlacementPlan",
    "plan_placement",
    "GuardrailMonitor",
    "StageDecision",
    "StagedRollout",
    "default_fleet_spec",
    "FleetSimulation",
]
