"""Tests for the event-driven cluster simulation (small configurations)."""

import pytest

from repro.cluster.simulated import ClusterScenario, SimulatedCluster
from repro.config.schema import ClusterSpec, CpuBullySpec, PerfIsoSpec
from repro.errors import ConfigError
from repro.experiments import scenarios as sc

#: Per-machine load and run length of every tiny cluster: 400 QPS per machine
#: is 800 QPS across the two rows.
NODE = dict(qps=400, duration=0.6, warmup=0.2, seed=3)


def tiny_scenario(node=None):
    return ClusterScenario(
        cluster=ClusterSpec(partitions=2, rows=2, tla_machines=2),
        node=node if node is not None else sc.standalone(**NODE),
    )


class TestSimulatedCluster:
    def test_layout_built_from_spec(self):
        cluster = SimulatedCluster(tiny_scenario())
        machines = cluster.layout.index_machines
        assert len(cluster.nodes) == 4
        assert set(cluster.nodes) == {info.name for info in machines}
        assert {info.row for info in machines} == {0, 1}

    def test_requests_flow_through_all_layers(self):
        cluster = SimulatedCluster(tiny_scenario())
        result = cluster.run()
        assert result.requests_completed > 0
        assert result.local_latency.count > 0
        assert result.mla_latency.count > 0
        assert result.tla_latency.count > 0

    def test_layer_latencies_increase(self):
        result = SimulatedCluster(tiny_scenario()).run()
        assert result.mla_latency.mean > 0
        assert result.tla_latency.mean > result.mla_latency.mean

    def test_every_index_machine_serves_its_row_load(self):
        cluster = SimulatedCluster(tiny_scenario())
        cluster.run()
        for node in cluster.nodes.values():
            assert node.primary.completed > 0

    def test_colocated_cluster_with_perfiso_runs(self):
        node = sc.standalone(**NODE).replace(
            perfiso=PerfIsoSpec(), cpu_bully=CpuBullySpec(threads=48)
        )
        scenario = tiny_scenario(node)
        cluster = SimulatedCluster(scenario, name="colocated")
        result = cluster.run()
        assert result.requests_completed > 0
        assert result.cpu.secondary > 0.2
        # Every node's controller kept some cores idle for the primary.
        for node in cluster.nodes.values():
            assert node.controller is not None
            assert node.controller.polls > 0

    def test_summary_contains_all_layers(self):
        result = SimulatedCluster(tiny_scenario()).run()
        summary = result.summary()
        for key in ("local_p99_ms", "mla_p99_ms", "tla_p99_ms", "idle_cpu_pct"):
            assert key in summary


class TestNodeSpec:
    """Every IndexServe machine is built from the node spec, all of it."""

    def test_node_perfiso_and_secondary_run_on_every_machine(self):
        cluster = SimulatedCluster(tiny_scenario(sc.blind_isolation(8, **NODE)))
        summary = cluster.run().summary()
        assert summary["secondary_cpu_pct"] > 20.0
        for node in cluster.nodes.values():
            assert [s.name for s in node.secondaries] == ["cpu-bully"]
            assert node.controller is not None
            assert node.controller.polls > 0

    def test_node_ml_training_runs_on_every_machine(self):
        cluster = SimulatedCluster(tiny_scenario(sc.ml_training_colocation(**NODE)))
        cluster.run()
        for node in cluster.nodes.values():
            (training,) = node.secondaries
            assert training.name == "ml-training"
            assert training.progress() > 0

    def test_time_varying_node_workload_rejected(self):
        node = sc.diurnal_cycle(duration=0.6, warmup=0.2, seed=3)
        with pytest.raises(ConfigError, match="constant-rate"):
            SimulatedCluster(tiny_scenario(node))
