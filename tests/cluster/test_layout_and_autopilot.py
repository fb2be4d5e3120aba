"""Tests for cluster layout and the versioned configuration store."""

import pytest

from repro.cluster.autopilot import ConfigStore
from repro.cluster.layout import ClusterLayout
from repro.config.schema import ClusterSpec, CpuCycleSpec, PerfIsoSpec, StaticCoreSpec
from repro.errors import ClusterError, UnknownVersionError


class TestClusterLayout:
    def test_paper_cluster_dimensions(self):
        layout = ClusterLayout(ClusterSpec())
        assert len(layout.index_machines) == 44
        assert len(layout.tla_machines) == 31
        assert layout.total_machines == 75

    def test_machines_in_row(self):
        layout = ClusterLayout(ClusterSpec(partitions=4, rows=2, tla_machines=2))
        row0 = layout.machines_in_row(0)
        assert len(row0) == 4
        assert all(m.row == 0 for m in row0)
        assert sorted(m.partition for m in row0) == [0, 1, 2, 3]

    def test_unknown_machine_rejected(self):
        layout = ClusterLayout(ClusterSpec(partitions=2, rows=1, tla_machines=1))
        with pytest.raises(ClusterError):
            layout.machines_in_row(3)

    def test_machine_names_unique(self):
        layout = ClusterLayout(ClusterSpec(partitions=6, rows=3, tla_machines=2))
        names = [m.name for m in layout.index_machines]
        assert len(names) == len(set(names))


class TestConfigStore:
    def test_publish_and_fetch(self):
        store = ConfigStore()
        published = PerfIsoSpec(cpu=StaticCoreSpec())
        store.publish("perfiso.json", published)
        assert store.fetch("perfiso.json") is published
        assert store.files() == ["perfiso.json"]

    def test_missing_file_rejected(self):
        with pytest.raises(ClusterError):
            ConfigStore().fetch("perfiso.json")

    def test_republish_overwrites(self):
        store = ConfigStore()
        store.publish("perfiso.json", PerfIsoSpec())
        store.publish("perfiso.json", PerfIsoSpec(cpu=None))
        assert store.fetch("perfiso.json").cpu is None
        assert store.pushes == 2


class TestConfigStoreVersions:
    def test_publish_returns_increasing_versions(self):
        store = ConfigStore()
        assert store.publish("perfiso.json", PerfIsoSpec()) == 1
        assert store.publish("perfiso.json", PerfIsoSpec(cpu=None)) == 2
        assert store.active_version("perfiso.json") == 2

    def test_fetch_version_returns_exact_historical_spec(self):
        store = ConfigStore()
        original = PerfIsoSpec(cpu=StaticCoreSpec())
        store.publish("perfiso.json", original)
        store.publish("perfiso.json", PerfIsoSpec())
        assert store.fetch_version("perfiso.json", 1) == original

    def test_rollback_restores_prior_version(self):
        store = ConfigStore()
        original = PerfIsoSpec(enabled=False)
        store.publish("perfiso.json", original)
        store.publish("perfiso.json", PerfIsoSpec())
        assert store.rollback("perfiso.json") == 1
        assert store.fetch("perfiso.json") == original
        # Rolling back is a push (machines re-fetch the file).
        assert store.pushes == 3

    def test_rollback_to_explicit_version_even_after_more_pushes(self):
        store = ConfigStore()
        original = PerfIsoSpec(enabled=False)
        store.publish("perfiso.json", original)
        store.publish("perfiso.json", PerfIsoSpec(cpu=CpuCycleSpec()))
        store.publish("perfiso.json", PerfIsoSpec(cpu=None))
        assert store.rollback("perfiso.json", 1) == 1
        assert store.fetch("perfiso.json") == original
        # History is never rewritten: the newer versions are still there.
        assert store.fetch_version("perfiso.json", 3).cpu is None

    def test_rollback_bounds_checked(self):
        store = ConfigStore()
        store.publish("perfiso.json", PerfIsoSpec())
        with pytest.raises(ClusterError):
            store.rollback("perfiso.json")  # no prior version
        with pytest.raises(ClusterError):
            store.rollback("perfiso.json", 7)
        with pytest.raises(ClusterError):
            store.rollback("missing.json")

    def test_fetch_version_bounds_checked(self):
        store = ConfigStore()
        store.publish("perfiso.json", PerfIsoSpec())
        with pytest.raises(ClusterError):
            store.fetch_version("perfiso.json", 0)
        with pytest.raises(ClusterError):
            store.fetch_version("perfiso.json", 2)

    def test_unknown_version_error_names_the_available_versions(self):
        """Recovery code (rollouts rolling back through churn) needs to see
        what versions *do* exist, so the dedicated error carries them."""
        store = ConfigStore()
        store.publish("perfiso.json", PerfIsoSpec())
        store.publish("perfiso.json", PerfIsoSpec(enabled=False))
        with pytest.raises(UnknownVersionError) as excinfo:
            store.fetch_version("perfiso.json", 9)
        error = excinfo.value
        assert error.name == "perfiso.json"
        assert error.version == 9
        assert error.available == (1, 2)
        assert "available versions: 1, 2" in str(error)
        # Same contract on the rollback path, and it is a ClusterError
        # subclass so legacy except-clauses keep working.
        assert isinstance(error, ClusterError)
        with pytest.raises(UnknownVersionError, match="no version 7"):
            store.rollback("perfiso.json", 7)

    def test_unknown_file_is_not_a_version_error(self):
        """Asking about a file the store has never seen is a different
        mistake from asking for a missing version of a known file."""
        with pytest.raises(ClusterError, match="no configuration file") as excinfo:
            ConfigStore().rollback("missing.json")
        assert not isinstance(excinfo.value, UnknownVersionError)
