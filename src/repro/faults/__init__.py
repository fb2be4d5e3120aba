"""Deterministic fault injection for the PerfIso reproduction.

The paper's production story is not "nothing ever failed": machines crash
mid-rollout, cores degrade, telemetry pipelines stall, and the controller
itself gets restarted by Autopilot.  This package turns those events into
*declared, reproducible* parts of an experiment: a
:class:`~repro.config.schema.FaultPlanSpec` on an ``ExperimentSpec`` or
``FleetSpec`` describes the fault timeline, and every schedule is drawn from
the named ``"faults"`` random stream — so fault schedules are a pure function
of the spec (byte-identical at any worker count) and enabling faults cannot
perturb any other component's random draws.

Layering:

* :mod:`repro.faults.schedule` — the deterministic draws themselves (crash
  episodes, straggler membership), a leaf module shared by both tiers;
* :mod:`repro.faults.injector` — engine-level injection for single-machine
  experiments (degraded cores, telemetry dropout, controller crash/recovery);
* :mod:`repro.faults.fleet` — fleet-level timelines folded into the analytic
  shard math, plus the fault-injecting configuration store.
"""

from .fleet import (
    FaultyConfigStore,
    FleetFaultTimeline,
    ShardFaultPlan,
    fleet_fault_horizon,
)
from .injector import DegradedSignal, SingleMachineFaultInjector
from .schedule import (
    FAULTS_STREAM,
    fault_rng,
    fault_seed,
    machine_crash_episodes,
    machine_is_degraded,
)

__all__ = [
    "FAULTS_STREAM",
    "DegradedSignal",
    "FaultyConfigStore",
    "FleetFaultTimeline",
    "ShardFaultPlan",
    "SingleMachineFaultInjector",
    "fault_rng",
    "fault_seed",
    "fleet_fault_horizon",
    "machine_crash_episodes",
    "machine_is_degraded",
]
