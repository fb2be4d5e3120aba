"""PerfIso reproduction: performance isolation for latency-sensitive services.

This package reproduces, in simulation, the system described in
"PerfIso: Performance Isolation for Commercial Latency-Sensitive Services"
(Iorgulescu et al., USENIX ATC 2018): a user-mode controller that colocates
best-effort batch jobs with a latency-sensitive service by keeping a buffer
of idle cores at all times (*CPU blind isolation*), plus disk and memory
safeguards.

The public API is organised in layers:

* :mod:`repro.simulation`, :mod:`repro.hardware`, :mod:`repro.hostos` — the
  substrate: a discrete-event kernel, the machine model and a simulated OS.
* :mod:`repro.tenants`, :mod:`repro.workloads` — the primary (IndexServe-like)
  service, batch-job secondaries and load generation.
* :mod:`repro.core` — PerfIso itself: the controller, CPU blind isolation and
  the alternative policies, DWRR I/O throttling and the memory guard.
* :mod:`repro.cluster` — the multi-machine serving topology (TLA/MLA fan-out).
* :mod:`repro.experiments`, :mod:`repro.metrics` — the harnesses reproducing
  every figure of the paper's evaluation.
* :mod:`repro.runtime` — the parallel experiment runtime: process fan-out
  over ``ExperimentSpec`` and ``ClusterScenario`` batches plus a
  content-addressed result cache.
* :mod:`repro.fleet` — fleet operations: staged PerfIso rollout, secondary
  placement and capacity-reclamation accounting over sharded execution.
"""

from .config.schema import ExperimentSpec, FleetSpec, PerfIsoSpec
from .core.controller import PerfIsoController
from .core.policies import (
    AllocationDecision,
    BlindIsolationPolicy,
    CpuCyclesPolicy,
    NoIsolationPolicy,
    StaticCoresPolicy,
)
from .experiments.matrix import MatrixResult, Scenario, run_scenario
from .experiments.single_machine import SingleMachineExperiment, SingleMachineResult
from .fleet.simulate import FleetSimulation
from .runtime import ExperimentRunner, ExperimentTask, ResultCache

__version__ = "1.8.0"

__all__ = [
    "FleetSimulation",
    "FleetSpec",
    "MatrixResult",
    "Scenario",
    "run_scenario",
    "ExperimentRunner",
    "ExperimentTask",
    "ResultCache",
    "ExperimentSpec",
    "PerfIsoSpec",
    "PerfIsoController",
    "AllocationDecision",
    "BlindIsolationPolicy",
    "CpuCyclesPolicy",
    "NoIsolationPolicy",
    "StaticCoresPolicy",
    "SingleMachineExperiment",
    "SingleMachineResult",
    "__version__",
]
