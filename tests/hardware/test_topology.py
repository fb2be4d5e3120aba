"""Tests for the CPU topology model."""

import pytest

from repro.config.schema import MachineSpec
from repro.errors import ConfigError
from repro.hardware.topology import CpuTopology


class TestCpuTopology:
    def test_paper_machine_counts(self):
        topology = CpuTopology.from_spec(MachineSpec())
        assert topology.logical_core_count == 48
        assert topology.physical_core_count == 24
        assert topology.sockets == 2

    def test_siblings_share_physical_core(self):
        topology = CpuTopology(1, 2, 2)
        assert topology.siblings(0) == (0, 1)
        assert topology.siblings(1) == (0, 1)
        assert topology.siblings(2) == (2, 3)

    def test_core_info_fields(self):
        topology = CpuTopology(2, 2, 2)
        info = topology.core_info(5)
        assert info.core_id == 5
        assert 0 <= info.socket < 2
        assert info.smt_index in (0, 1)

    def test_core_info_out_of_range(self):
        with pytest.raises(ConfigError):
            CpuTopology(1, 2, 2).core_info(99)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            CpuTopology(0, 1, 1)

    def test_secondary_allocation_order_starts_at_top(self):
        topology = CpuTopology(1, 4, 2)
        order = topology.secondary_allocation_order()
        assert len(order) == 8
        assert order[0] == 7
        # Whole physical cores come out together.
        assert set(order[:2]) == set(topology.siblings(7))

    def test_secondary_allocation_order_covers_all_cores(self):
        topology = CpuTopology.from_spec(MachineSpec())
        order = topology.secondary_allocation_order()
        assert sorted(order) == list(range(48))
