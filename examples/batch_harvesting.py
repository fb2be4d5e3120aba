#!/usr/bin/env python3
"""Harvesting idle cycles for big-data work — the paper's motivating scenario.

Latency-sensitive clusters are provisioned for peak load plus disaster
head-room, so their average utilisation is very low.  This example colocates
the two batch workloads the paper discusses — a machine-learning training job
and the HDFS machinery big-data frameworks rely on — with the IndexServe-like
primary, all under one PerfIso controller:

* CPU blind isolation keeps 8 idle buffer cores for the primary's bursts.
* The HDFS DataNode/client traffic is capped (20 / 60 MB/s, as in the paper's
  cluster configuration) on the shared HDD volume.
* The memory guard protects RAM.

It also demonstrates two operational features: the kill switch (instantly
lifting every restriction for debugging) and crash recovery, by rerunning
the same spec with a fault plan that crashes the controller mid-run; the
restarted controller restores its last checkpoint.

Run:  python examples/batch_harvesting.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config.schema import (
    BlindIsolationSpec,
    ControllerCrashSpec,
    ExperimentSpec,
    FaultPlanSpec,
    HdfsSpec,
    MlTrainingSpec,
    PerfIsoSpec,
    WorkloadSpec,
)
from repro.experiments.reporting import print_figure
from repro.experiments.single_machine import SingleMachineExperiment

QPS = 2000.0
DURATION = 4.0
WARMUP = 0.5


def build_spec() -> ExperimentSpec:
    perfiso = PerfIsoSpec(cpu=BlindIsolationSpec(buffer_cores=8))
    return ExperimentSpec(
        workload=WorkloadSpec(qps=QPS, duration=DURATION, warmup=WARMUP),
        perfiso=perfiso,
        ml_training=MlTrainingSpec(threads=40),
        hdfs=HdfsSpec(),
        seed=7,
    )


def main() -> None:
    baseline = SingleMachineExperiment(
        ExperimentSpec(workload=WorkloadSpec(qps=QPS, duration=DURATION, warmup=WARMUP), seed=7),
        "standalone",
    ).run()

    print("running colocated ML-training + HDFS under PerfIso ...")
    experiment = SingleMachineExperiment(build_spec(), "ml-harvesting")
    result = experiment.run()

    rows = [
        {
            "configuration": "standalone",
            "p99_ms": baseline.summary()["p99_ms"],
            "machine_busy_pct": 100 - baseline.summary()["idle_cpu_pct"],
            "minibatches_done": 0,
        },
        {
            "configuration": "ML training + HDFS under PerfIso",
            "p99_ms": result.summary()["p99_ms"],
            "machine_busy_pct": 100 - result.summary()["idle_cpu_pct"],
            "minibatches_done": result.secondary_progress,
        },
    ]
    print_figure(
        "Harvesting idle cycles for a machine-learning training job",
        rows,
        notes=[
            f"P99 degradation: {(result.latency.p99 - baseline.latency.p99) * 1000:.2f} ms",
            "the training job's mini-batches are work the cluster would otherwise not do",
        ],
    )

    # ------------------------------------------------------------ kill switch
    controller = experiment.assembly.controller
    controller.disable()
    print("\nkill switch engaged: secondary affinity =", controller.secondary_affinity,
          "(None = unrestricted, as for live-site debugging)")
    controller.enable()
    print("re-enabled: secondary restricted to",
          len(controller.secondary_affinity), "cores")

    # --------------------------------------------------------- crash recovery
    crash = ControllerCrashSpec(at=WARMUP + DURATION / 2)
    crashed = SingleMachineExperiment(
        build_spec().replace(faults=FaultPlanSpec(controller_crash=crash)),
        "ml-harvesting-crash",
    ).run()
    print(f"\ncontroller crashed at t={crash.at:g} s and restarted "
          f"{crashed.extra['controller_restarts']:.0f} time(s) from its last checkpoint; "
          f"P99 {crashed.summary()['p99_ms']:.2f} ms "
          f"(without the crash: {result.summary()['p99_ms']:.2f} ms)")


if __name__ == "__main__":
    main()
