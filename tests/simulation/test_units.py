"""Tests for the unit helpers."""

import pytest

from repro import units


class TestDurations:
    def test_micros_millis_seconds(self):
        assert units.micros(5) == pytest.approx(5e-6)
        assert units.millis(12) == pytest.approx(0.012)

    def test_round_trips(self):
        assert units.to_millis(units.millis(7.5)) == pytest.approx(7.5)

    def test_ordering_of_constants(self):
        assert units.MICROSECOND < units.MILLISECOND


class TestSizes:
    def test_binary_sizes(self):
        assert units.KIB == 1024
        assert units.MIB == 1024**2
        assert units.GIB == 1024**3

    def test_decimal_bandwidth(self):
        assert units.MB == 1000 * units.KB == 1e6
