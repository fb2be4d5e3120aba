"""Tests for the configuration schema."""

import dataclasses
import json

import pytest

from repro.config.schema import (
    BlindIsolationSpec,
    ClusterSpec,
    ConfigPushFaultSpec,
    ControllerCrashSpec,
    CpuBullySpec,
    CpuCycleSpec,
    DegradedCoreSpec,
    DiskSpec,
    ExperimentSpec,
    HdfsSpec,
    IndexServeSpec,
    IoThrottleSpec,
    MachineFaultSpec,
    MachineSpec,
    MemoryGuardSpec,
    PerfIsoSpec,
    SchedulerSpec,
    StaticCoreSpec,
    TelemetryFaultSpec,
    VolumeSpec,
    WorkloadSpec,
)
from repro.errors import ConfigError
from repro.runtime.spec_hash import canonical_encoding


class TestMachineSpec:
    def test_default_matches_paper_hardware(self):
        spec = MachineSpec()
        assert spec.logical_cores == 48
        assert spec.memory_bytes == 128 * 1024**3

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigError):
            MachineSpec(sockets=0)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ConfigError):
            MachineSpec(memory_bytes=0)

    def test_default_volumes(self):
        spec = MachineSpec()
        assert spec.ssd_volume.disk.kind == "ssd"
        assert spec.hdd_volume.disk.kind == "hdd"
        assert spec.ssd_volume.count == 4
        assert spec.hdd_volume.count == 4


class TestDiskAndVolume:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError):
            DiskSpec(kind="tape")

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            DiskSpec(bandwidth_bytes_per_s=0)

    def test_volume_needs_disks(self):
        with pytest.raises(ConfigError):
            VolumeSpec(name="v", disk=DiskSpec(), count=0)

    def test_volume_stripe_floor(self):
        with pytest.raises(ConfigError):
            VolumeSpec(name="v", disk=DiskSpec(), stripe_bytes=1024)


class TestSchedulerSpec:
    def test_defaults_valid(self):
        spec = SchedulerSpec()
        assert spec.quantum > 0
        assert spec.placement == "per_core"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quantum": 0},
            {"context_switch_cost": -1e-6},
            {"rate_interval": 0},
            {"smt_slowdown": 0.01},
            {"placement": "random"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SchedulerSpec(**kwargs)


class TestIndexServeSpec:
    def test_defaults_valid(self):
        spec = IndexServeSpec()
        assert spec.workers_per_query_min <= spec.workers_per_query_mean
        assert spec.workers_per_query_mean <= spec.workers_per_query_max

    def test_inconsistent_fanout_rejected(self):
        with pytest.raises(ConfigError):
            IndexServeSpec(workers_per_query_mean=20, workers_per_query_max=10)

    def test_bad_miss_rate_rejected(self):
        with pytest.raises(ConfigError):
            IndexServeSpec(cache_miss_rate=1.5)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigError):
            IndexServeSpec(timeout=0)


class TestTenantSpecs:
    def test_cpu_bully_needs_threads(self):
        with pytest.raises(ConfigError):
            CpuBullySpec(threads=0)

    def test_hdfs_limits_positive(self):
        with pytest.raises(ConfigError):
            HdfsSpec(replication_bandwidth_limit=0)


class TestPerfIsoSpecs:
    def test_policy_must_be_known(self):
        with pytest.raises(ConfigError):
            PerfIsoSpec(cpu=CpuBullySpec())

    def test_every_setting_is_one_the_run_reads(self):
        """A PerfIso spec encodes the one CPU policy it runs, not a sub-spec
        for every policy it could run."""
        fields = json.loads(canonical_encoding(PerfIsoSpec()))["spec"]["fields"]
        assert sorted(fields) == sorted(
            ["cpu", "slo_p99", "io_throttle", "memory_guard", "poll_interval", "enabled"]
        )

    def test_blind_buffer_non_negative(self):
        with pytest.raises(ConfigError):
            BlindIsolationSpec(buffer_cores=-1)

    def test_static_core_non_negative(self):
        with pytest.raises(ConfigError):
            StaticCoreSpec(secondary_cores=-1)

    def test_cycle_fraction_range(self):
        with pytest.raises(ConfigError):
            CpuCycleSpec(cpu_fraction=0.0)
        with pytest.raises(ConfigError):
            CpuCycleSpec(cpu_fraction=1.5)

    def test_io_throttle_weight_map(self):
        spec = IoThrottleSpec()
        weights = spec.weight_map()
        assert weights["primary"] > weights["secondary"]

    def test_io_throttle_rejects_bad_weights(self):
        with pytest.raises(ConfigError):
            IoThrottleSpec(weights=(("primary", 0.0),))

    def test_memory_guard_interval(self):
        with pytest.raises(ConfigError):
            MemoryGuardSpec(check_interval=0)

    def test_poll_interval_positive(self):
        with pytest.raises(ConfigError):
            PerfIsoSpec(poll_interval=0)

    def test_nan_poll_interval_rejected(self):
        # A NaN poll interval passes every ``<= 0`` check and would schedule
        # no controller polls.
        with pytest.raises(ConfigError, match="poll_interval"):
            PerfIsoSpec(poll_interval=float("nan"))


class TestFaultSpecs:
    @pytest.mark.parametrize(
        "build",
        [
            lambda value: MachineFaultSpec(crash_rate_per_hour=value),
            lambda value: DegradedCoreSpec(duration=value),
            lambda value: TelemetryFaultSpec(duration=value),
            lambda value: ControllerCrashSpec(at=value),
            lambda value: ConfigPushFaultSpec(failure_rate=value),
        ],
        ids=["machines", "degraded", "telemetry", "controller_crash", "config_push"],
    )
    def test_a_set_fault_is_on(self, build):
        """Each sub-spec's old disabling value is rejected: leaving the
        sub-spec unset is the one way to leave its fault off."""
        build(1.0)
        with pytest.raises(ConfigError):
            build(0.0)


class TestWorkloadAndCluster:
    def test_workload_total_time(self):
        spec = WorkloadSpec(qps=100, duration=5, warmup=1)
        assert spec.total_time == 6

    def test_cluster_counts(self):
        spec = ClusterSpec()
        assert spec.index_machines == 44
        assert spec.total_machines == 75

    def test_cluster_rejects_zero_rows(self):
        with pytest.raises(ConfigError):
            ClusterSpec(rows=0)


class TestExperimentSpec:
    def test_replace_returns_new_spec(self):
        spec = ExperimentSpec()
        other = spec.replace(seed=99)
        assert other.seed == 99
        assert spec.seed != 99

    def test_is_frozen(self):
        spec = ExperimentSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 3  # type: ignore[misc]
