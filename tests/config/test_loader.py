"""Tests for JSON configuration round-tripping."""

import pytest

from repro.config import loader
from repro.config.schema import (
    BlindIsolationSpec,
    CpuBullySpec,
    ExperimentSpec,
    IoThrottleSpec,
    MachineSpec,
    PerfIsoSpec,
    WorkloadSpec,
)
from repro.errors import ConfigError


class TestRoundTrip:
    def test_machine_spec_round_trip(self):
        spec = MachineSpec(sockets=1, cores_per_socket=8)
        rebuilt = loader.load_json(MachineSpec, loader.dump_json(spec))
        assert rebuilt == spec

    def test_perfiso_spec_round_trip(self):
        spec = PerfIsoSpec(
            cpu_policy="blind",
            blind=BlindIsolationSpec(buffer_cores=6),
            io_throttle=IoThrottleSpec(secondary_iops_limit=20.0),
        )
        rebuilt = loader.load_json(PerfIsoSpec, loader.dump_json(spec))
        assert rebuilt == spec

    def test_experiment_spec_round_trip_with_optionals(self):
        spec = ExperimentSpec(
            workload=WorkloadSpec(qps=1234.0, duration=3.0),
            cpu_bully=CpuBullySpec(threads=12),
            perfiso=PerfIsoSpec(),
        )
        rebuilt = loader.load_json(ExperimentSpec, loader.dump_json(spec))
        assert rebuilt == spec

    def test_none_optionals_preserved(self):
        spec = ExperimentSpec()
        rebuilt = loader.load_json(ExperimentSpec, loader.dump_json(spec))
        assert rebuilt.cpu_bully is None
        assert rebuilt.perfiso is None

class TestErrors:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            loader.from_dict(MachineSpec, {"socketz": 2})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            loader.load_json(MachineSpec, "{not json")

    def test_nan_poll_interval_rejected(self):
        # JSON's NaN literal parses to a float that every ``<= 0`` check lets
        # through; a NaN poll interval would schedule no controller polls.
        with pytest.raises(ConfigError, match="poll_interval"):
            loader.load_json(PerfIsoSpec, '{"poll_interval": NaN}')

    def test_from_dict_requires_dataclass(self):
        with pytest.raises(ConfigError):
            loader.from_dict(dict, {"a": 1})  # type: ignore[arg-type]

    def test_to_dict_requires_dataclass_instance(self):
        with pytest.raises(ConfigError):
            loader.to_dict({"a": 1})

    def test_from_none_rejected(self):
        with pytest.raises(ConfigError):
            loader.from_dict(MachineSpec, None)
