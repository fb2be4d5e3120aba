"""End-to-end telemetry on a single-machine experiment.

Two contracts are pinned here: instrumentation changes *nothing* about the
experiment's results (telemetry is strictly observational), and the stream
it produces is schema-valid and carries the per-component metrics the issue
names — occupancy, idle cores, offered/served QPS, controller decisions and
windowed P99 against the SLO.
"""

import pytest

from repro.config.schema import (
    BlindIsolationSpec,
    CpuBullySpec,
    ExperimentSpec,
    PerfIsoSpec,
    WorkloadSpec,
)
from repro.experiments.single_machine import SingleMachineExperiment
from repro.telemetry import TelemetrySession, validate_stream_file
from repro.telemetry.stream import read_records


def _specs():
    workload = WorkloadSpec(qps=350.0, duration=0.8, warmup=0.2, trace_queries=2000)
    plain = ExperimentSpec(workload=workload, seed=11)
    isolated = ExperimentSpec(
        workload=workload,
        seed=11,
        cpu_bully=CpuBullySpec(threads=8),
        perfiso=PerfIsoSpec(cpu=BlindIsolationSpec(buffer_cores=4)),
    )
    return {"plain": plain, "isolated": isolated}


@pytest.mark.parametrize("name", ["plain", "isolated"])
def test_results_identical_with_and_without_telemetry(tmp_path, name):
    spec = _specs()[name]
    baseline = SingleMachineExperiment(spec, scenario=name).run()
    path = tmp_path / "stream.jsonl"
    with TelemetrySession.to_path(str(path), source="test") as session:
        instrumented = SingleMachineExperiment(spec, scenario=name).run(telemetry=session)
    # Dataclass equality covers latency stats, the CPU breakdown, counts,
    # controller history and the secondary breakdown.
    assert instrumented == baseline
    validate_stream_file(str(path))


def test_stream_carries_component_metrics(tmp_path):
    spec = _specs()["isolated"]
    path = tmp_path / "stream.jsonl"
    with TelemetrySession.to_path(
        str(path), source="test", meta={"scenario": "isolated"}
    ) as session:
        SingleMachineExperiment(spec, scenario="isolated").run(telemetry=session)

    summary = validate_stream_file(str(path))
    assert summary.snapshots >= 10
    for metric in (
        "scheduler.occupancy",
        "scheduler.idle_cores",
        "workload.offered_qps",
        "workload.served_qps",
        "latency.windowed_p99_ms",
        "latency.slo_ms",
        "controller.secondary_cores",
        "controller.polls",
    ):
        assert metric in summary.metric_names
    # Every controller poll inside the run window closed one decide span.
    assert summary.span_names.get("controller.decide", 0) >= 10

    records = read_records(str(path))
    assert records[0]["scenario"] == "isolated"
    snapshots = [r for r in records if r["type"] == "snapshot"]
    assert all(r["label"] == "isolated" for r in snapshots)
    # Occupancy is a fraction; offered qps tracks the constant workload.
    # (The last probe can fire after the client drained, so served_qps is
    # checked as "served at some point" rather than on the final snapshot.)
    last = snapshots[-1]["metrics"]
    assert 0.0 <= last["scheduler.occupancy"] <= 1.0
    assert last["workload.offered_qps"] == spec.workload.qps
    assert max(r["metrics"]["workload.served_qps"] for r in snapshots) > 0.0
    # With PerfIso active the ratio against the SLO is published.
    assert any(
        r["metrics"].get("latency.p99_over_slo") is not None for r in snapshots
    )
    spans = [r for r in records if r["type"] == "span"]
    decide = [s for s in spans if s["name"] == "controller.decide"]
    assert all(s["attributes"].get("decision") for s in decide)
    assert all(s["attributes"]["policy"] == "blind" for s in decide)


def test_probe_count_matches_default_cadence(tmp_path):
    spec = _specs()["plain"]
    path = tmp_path / "stream.jsonl"
    with TelemetrySession.to_path(str(path), source="test") as session:
        SingleMachineExperiment(spec).run(telemetry=session)
    summary = validate_stream_file(str(path))
    # 128 probes per run by default; the final interval can land exactly on
    # the horizon, so allow the one-off tail probe.
    assert 100 <= summary.snapshots <= 130


#: The gauges every single-machine snapshot carries, in sorted name order.
_GAUGES = (
    "latency.completed",
    "latency.dropped",
    "latency.windowed_p99_ms",
    "scheduler.idle_cores",
    "scheduler.occupancy",
    "workload.offered_qps",
    "workload.served_qps",
    "workload.submitted",
)
#: The extra gauges of a run under PerfIso.
_PERFISO_GAUGES = (
    "controller.polls",
    "controller.secondary_cores",
    "controller.updates_applied",
    "latency.slo_ms",
)


@pytest.mark.parametrize("name", ["plain", "isolated"])
def test_snapshot_keys_sorted_then_slo_ratio(tmp_path, name):
    """Metric keys come by sorted name, then ``latency.p99_over_slo`` last."""
    spec = _specs()[name]
    path = tmp_path / "stream.jsonl"
    with TelemetrySession.to_path(str(path), source="test") as session:
        SingleMachineExperiment(spec, scenario=name).run(telemetry=session)
    gauges = sorted(_GAUGES + (_PERFISO_GAUGES if spec.perfiso is not None else ()))
    snapshots = [r["metrics"] for r in read_records(str(path)) if r["type"] == "snapshot"]
    with_ratio = 0
    for metrics in snapshots:
        expected = list(gauges)
        if spec.perfiso is not None and metrics["latency.windowed_p99_ms"] is not None:
            expected.append("latency.p99_over_slo")
            with_ratio += 1
        assert list(metrics) == expected
    assert with_ratio > 0 if spec.perfiso is not None else with_ratio == 0


def test_slo_is_the_perfiso_slo_under_every_policy(tmp_path):
    """Telemetry reports ``PerfIsoSpec.slo_p99`` whatever the CPU policy: a
    blind showdown cell at a 12 ms SLO streams ``latency.slo_ms == 12``."""
    from repro.experiments.scenarios import controller_showdown

    spec = controller_showdown(
        "blind", base_qps=500.0, peak_qps=1500.0, slo_ms=12.0,
        duration=0.3, warmup=0.1, seed=5,
    )
    path = tmp_path / "stream.jsonl"
    with TelemetrySession.to_path(str(path), source="test") as session:
        SingleMachineExperiment(spec).run(telemetry=session)
    snapshots = [r["metrics"] for r in read_records(str(path)) if r["type"] == "snapshot"]
    assert snapshots
    assert all(metrics["latency.slo_ms"] == 12.0 for metrics in snapshots)
