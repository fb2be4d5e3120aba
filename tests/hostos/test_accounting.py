"""Tests for CPU accounting."""

import pytest

from repro.errors import SchedulerError
from repro.hostos.accounting import CpuAccounting
from repro.hostos.process import TenantCategory


class TestCpuAccounting:
    def test_charge_and_query(self):
        accounting = CpuAccounting(4)
        accounting.charge(TenantCategory.PRIMARY, 2.0)
        accounting.charge(TenantCategory.SECONDARY, 1.0)
        assert accounting.busy_seconds(TenantCategory.PRIMARY) == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(SchedulerError):
            CpuAccounting(4).charge(TenantCategory.PRIMARY, -1.0)

    def test_zero_cores_rejected(self):
        with pytest.raises(SchedulerError):
            CpuAccounting(0)

    def test_utilization_fractions(self):
        accounting = CpuAccounting(4)
        accounting.charge(TenantCategory.PRIMARY, 2.0)
        accounting.charge_os(1.0)
        # 10 seconds on 4 cores = 40 core-seconds of capacity.
        utilization = accounting.utilization(10.0)
        assert utilization[TenantCategory.PRIMARY] == pytest.approx(0.05)
        assert utilization[TenantCategory.SYSTEM] == pytest.approx(0.025)
        assert utilization["idle"] == pytest.approx(0.925)

    def test_utilization_sums_to_one(self):
        accounting = CpuAccounting(8)
        accounting.charge(TenantCategory.PRIMARY, 5.0)
        accounting.charge(TenantCategory.SECONDARY, 10.0)
        utilization = accounting.utilization(10.0)
        assert sum(utilization.values()) == pytest.approx(1.0)

    def test_utilization_since_snapshot(self):
        accounting = CpuAccounting(2)
        accounting.charge(TenantCategory.PRIMARY, 1.0)
        snapshot = accounting.snapshot(5.0)
        accounting.charge(TenantCategory.PRIMARY, 1.0)
        utilization = accounting.utilization(10.0, snapshot)
        # Only the second charge counts, over 5 seconds on 2 cores.
        assert utilization[TenantCategory.PRIMARY] == pytest.approx(0.1)

    def test_utilization_with_zero_elapsed(self):
        accounting = CpuAccounting(2)
        utilization = accounting.utilization(0.0)
        assert utilization["idle"] == 1.0

    def test_snapshot_is_immutable_copy(self):
        accounting = CpuAccounting(2)
        accounting.charge(TenantCategory.PRIMARY, 1.0)
        snapshot = accounting.snapshot(1.0)
        accounting.charge(TenantCategory.PRIMARY, 5.0)
        assert snapshot.busy_by_category[TenantCategory.PRIMARY] == 1.0
