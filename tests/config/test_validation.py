"""Tests for cross-field experiment validation."""

import pytest

from repro.config.schema import (
    BlindIsolationSpec,
    ClusterSpec,
    CpuBullySpec,
    ExperimentSpec,
    IndexServeSpec,
    PerfIsoSpec,
    StaticCoreSpec,
    WorkloadSpec,
)
from repro.config.validation import validate_cluster, validate_experiment
from repro.errors import ConfigError
from repro.units import GIB


class TestValidateExperiment:
    def test_default_spec_is_valid(self):
        validate_experiment(ExperimentSpec())

    def test_primary_memory_must_fit(self):
        spec = ExperimentSpec(
            indexserve=IndexServeSpec(memory_footprint_bytes=200 * GIB)
        )
        with pytest.raises(ConfigError):
            validate_experiment(spec)

    def test_buffer_cannot_cover_whole_machine(self):
        spec = ExperimentSpec(
            perfiso=PerfIsoSpec(cpu=BlindIsolationSpec(buffer_cores=48))
        )
        with pytest.raises(ConfigError):
            validate_experiment(spec)

    def test_static_cores_bounded_by_machine(self):
        spec = ExperimentSpec(
            perfiso=PerfIsoSpec(
                cpu=StaticCoreSpec(secondary_cores=64)
            )
        )
        with pytest.raises(ConfigError):
            validate_experiment(spec)

    def test_poll_interval_must_fit_in_run(self):
        spec = ExperimentSpec(
            workload=WorkloadSpec(qps=100, duration=0.5),
            perfiso=PerfIsoSpec(poll_interval=2.0),
        )
        with pytest.raises(ConfigError):
            validate_experiment(spec)

    def test_absurd_bully_rejected(self):
        spec = ExperimentSpec(cpu_bully=CpuBullySpec(threads=1000))
        with pytest.raises(ConfigError):
            validate_experiment(spec)

    def test_combined_memory_footprint_checked(self):
        spec = ExperimentSpec(
            indexserve=IndexServeSpec(memory_footprint_bytes=120 * GIB),
            cpu_bully=CpuBullySpec(threads=4, memory_bytes=90 * GIB),
        )
        with pytest.raises(ConfigError):
            validate_experiment(spec)


class TestValidateCluster:
    def test_default_cluster_valid(self):
        validate_cluster(ClusterSpec())

    def test_implausible_row_count_rejected(self):
        with pytest.raises(ConfigError):
            validate_cluster(ClusterSpec(partitions=1, rows=5))


class TestArrivalModelValidation:
    def test_flash_crowd_outside_the_window_is_an_error(self):
        from repro.config.schema import FlashCrowdSpec, WorkloadSpec

        workload = WorkloadSpec(
            duration=2.0,
            warmup=0.5,
            flash_crowd=FlashCrowdSpec(start=10.0),
        )
        with pytest.raises(ConfigError, match="flash crowd starts"):
            validate_experiment(ExperimentSpec(workload=workload))
