#!/usr/bin/env python3
"""Multi-layer cluster serving: local, MLA and TLA latency under colocation.

The paper's cluster experiment (Figure 9) measures query latency at three
levels of the aggregation tree — the local IndexServe machines, the mid-level
aggregators running *on* those machines, and the dedicated top-level
aggregators — with and without colocated batch work.  Because responses are
aggregated with a max over all partitions of a row, one slow machine drags
the whole cluster: this is why per-machine isolation matters.

This example runs a scaled-down event-driven cluster (per-machine load is the
same as the paper's: every machine of a row serves every request routed to
that row) in two configurations, then uses the sampled tail-at-scale model to
show how the fan-out width amplifies the local tail.  Each configuration is
one node spec, a single-machine scenario that every IndexServe machine of the
cluster runs.

Run:  python examples/cluster_serving.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.sampled import SampledClusterModel
from repro.cluster.simulated import ClusterScenario, SimulatedCluster
from repro.config.schema import ClusterSpec, HdfsSpec
from repro.experiments import scenarios
from repro.experiments.reporting import print_figure

PARTITIONS = 3
ROWS = 2
#: Per-machine load: 4,000 QPS per machine, so 8,000 QPS across the two rows,
#: as in the paper.
NODE = dict(qps=4000.0, duration=1.5, warmup=0.3, seed=11)


def run_cluster(label: str, node):
    """Run the cluster with every IndexServe machine built from ``node``,
    which also runs HDFS, as every machine of the paper's cluster does."""
    scenario = ClusterScenario(
        cluster=ClusterSpec(partitions=PARTITIONS, rows=ROWS, tla_machines=2),
        node=node.replace(hdfs=HdfsSpec()),
    )
    print(f"running cluster scenario: {label} ...")
    return SimulatedCluster(scenario, name=label).run()


def main() -> None:
    standalone = run_cluster("standalone", scenarios.standalone(**NODE))
    # A high CPU bully (48 threads) under blind isolation with 8 buffer cores.
    colocated = run_cluster("cpu-bound secondary + PerfIso", scenarios.blind_isolation(**NODE))

    rows = []
    for result in (standalone, colocated):
        summary = result.summary()
        rows.append(
            {
                "scenario": result.scenario,
                "local_p99_ms": summary["local_p99_ms"],
                "mla_p99_ms": summary["mla_p99_ms"],
                "tla_p99_ms": summary["tla_p99_ms"],
                "fleet_busy_pct": 100 - summary["idle_cpu_pct"],
            }
        )
    print_figure(
        "Per-layer P99 latency on the serving cluster",
        rows,
        notes=["with PerfIso the colocated cluster's per-layer P99 stays close to standalone"],
    )

    # Tail-at-scale: how the fan-out width amplifies the local latency tail.
    # The sampled model only needs a per-machine latency distribution, which a
    # single-machine run provides cheaply.
    from repro.experiments.single_machine import SingleMachineExperiment

    single = SingleMachineExperiment(
        scenarios.standalone(qps=4000, duration=2.0, warmup=0.3, seed=12), "sample-source"
    )
    single.run()
    local_samples = single.assembly.collector.samples()
    model = SampledClusterModel(ClusterSpec(), local_samples, seed=12)
    curve = model.tail_at_scale_curve([1, 2, 4, 8, 22], num_requests=20000)
    print_figure(
        "Tail-at-scale: MLA P99 vs fan-out width (sampled model, 75-node layout)",
        [{"partitions": k, "mla_p99_ms": v * 1000.0} for k, v in sorted(curve.items())],
        notes=["the slowest of N machines dictates row latency — why per-machine isolation matters"],
    )


if __name__ == "__main__":
    main()
