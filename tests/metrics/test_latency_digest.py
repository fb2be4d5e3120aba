"""Tests for the exactly-mergeable latency digest."""

import pickle

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.metrics.latency import LatencyDigest


def samples(seed, size=5000, scale=0.004):
    return np.random.default_rng(seed).lognormal(mean=np.log(scale), sigma=0.8, size=size)


class TestMergeExactness:
    def test_merged_shards_equal_single_digest_of_union(self):
        parts = [samples(seed) for seed in range(5)]
        union = LatencyDigest.from_samples(np.concatenate(parts))
        shards = [LatencyDigest.from_samples(part) for part in parts]
        merged = LatencyDigest.merged(shards)
        assert merged.count == union.count
        assert merged.maximum == union.maximum
        assert merged.stats() == union.stats()

    def test_merge_order_is_irrelevant(self):
        parts = [LatencyDigest.from_samples(samples(seed)) for seed in range(4)]
        forward = LatencyDigest.merged(parts)
        backward = LatencyDigest.merged(list(reversed(parts)))
        assert forward.stats() == backward.stats()

    def test_merging_an_empty_digest_is_identity(self):
        digest = LatencyDigest.from_samples(samples(0))
        before = digest.stats()
        digest.merge(LatencyDigest())
        assert digest.stats() == before

    def test_merged_of_nothing_is_empty(self):
        assert LatencyDigest.merged([]).count == 0

    def test_incompatible_grids_refuse_to_merge(self):
        with pytest.raises(ExperimentError, match="grids"):
            LatencyDigest(bins=128).merge(LatencyDigest(bins=256))


class TestAccuracy:
    def test_percentiles_close_to_exact_empirical_values(self):
        values = samples(7, size=50_000)
        digest = LatencyDigest.from_samples(values)
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(values, q))
            approx = digest.percentile(q)
            # Geometric bins are ~3 % wide; the midpoint is within half that.
            assert approx == pytest.approx(exact, rel=0.05)

    def test_mean_and_max_are_exact(self):
        values = samples(11)
        digest = LatencyDigest.from_samples(values)
        stats = digest.stats()
        assert stats.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert stats.maximum == float(values.max())
        assert stats.count == values.size

    def test_percentile_never_exceeds_observed_max(self):
        digest = LatencyDigest.from_samples([0.001, 0.002, 1000.0])  # overflow bin
        assert digest.percentile(99.9) <= digest.maximum


class TestEdges:
    def test_empty_digest_stats(self):
        digest = LatencyDigest()
        assert digest.percentile(99.0) == 0.0
        stats = digest.stats()
        assert stats.count == 0 and stats.p99 == 0.0

    def test_underflow_and_overflow_are_counted(self):
        digest = LatencyDigest(bins=8, lowest=1e-3, highest=1.0)
        digest.add([1e-6, 0.5, 100.0])
        assert digest.count == 3
        assert digest.maximum == 100.0

    def test_drops_are_tracked_and_merged(self):
        a = LatencyDigest()
        a.record_drop(2)
        b = LatencyDigest()
        b.record_drop()
        a.merge(b)
        assert a.dropped == 3
        assert a.stats().dropped == 3

    def test_negative_samples_rejected(self):
        with pytest.raises(ExperimentError):
            LatencyDigest().add([-0.1])

    def test_invalid_grid_rejected(self):
        with pytest.raises(ExperimentError):
            LatencyDigest(bins=0)
        with pytest.raises(ExperimentError):
            LatencyDigest(lowest=1.0, highest=0.5)

    def test_copy_is_independent(self):
        digest = LatencyDigest.from_samples(samples(3))
        clone = digest.copy()
        clone.add(samples(4))
        assert clone.count != digest.count


class TestPercentileEdgeCases:
    def test_all_samples_in_the_underflow_bin(self):
        digest = LatencyDigest(bins=8, lowest=1e-3, highest=1.0)
        digest.add([1e-6, 1e-5, 1e-4])
        # The underflow bin resolves to the grid's lower bound, capped by
        # the true maximum so the percentile never exceeds an observed value.
        assert digest.percentile(50.0) == pytest.approx(1e-4)
        assert digest.percentile(99.0) == pytest.approx(1e-4)

    def test_all_samples_in_the_overflow_bin(self):
        digest = LatencyDigest(bins=8, lowest=1e-3, highest=1.0)
        digest.add([10.0, 20.0, 30.0])
        # The overflow bin resolves to the exact tracked maximum.
        assert digest.percentile(99.0) == 30.0

    def test_percentile_zero_and_one_hundred(self):
        digest = LatencyDigest.from_samples(samples(13))
        assert 0.0 < digest.percentile(0.0) <= digest.percentile(100.0)
        assert digest.percentile(100.0) <= digest.maximum

    def test_single_sample_is_every_percentile(self):
        digest = LatencyDigest.from_samples([0.004])
        for q in (0.0, 50.0, 99.0, 100.0):
            assert digest.percentile(q) == pytest.approx(0.004, rel=0.03)


class TestAddCounts:
    def binned(self, values, digest):
        values = np.asarray(values, dtype=np.float64)
        indices = np.searchsorted(digest.edges, values, side="right")
        return np.bincount(indices, minlength=digest.counts_size)

    def test_add_counts_matches_add_exactly(self):
        values = samples(21)
        via_add = LatencyDigest.from_samples(values)
        via_counts = LatencyDigest()
        via_counts.add_counts(
            self.binned(values, via_counts), float(values.sum()), float(values.max())
        )
        assert via_counts.count == via_add.count
        assert via_counts.maximum == via_add.maximum
        assert via_counts.stats() == via_add.stats()

    def test_zero_counts_are_a_no_op(self):
        digest = LatencyDigest()
        digest.add_counts(np.zeros(digest.counts_size, dtype=np.int64), 0.0, -1.0)
        assert digest.count == 0 and digest.maximum == 0.0

    def test_wrong_shape_rejected(self):
        digest = LatencyDigest()
        with pytest.raises(ExperimentError, match="shape"):
            digest.add_counts(np.ones(3, dtype=np.int64), 1.0, 1.0)

    def test_non_integral_counts_rejected(self):
        digest = LatencyDigest()
        with pytest.raises(ExperimentError, match="integral"):
            digest.add_counts(np.ones(digest.counts_size, dtype=np.float64), 1.0, 1.0)

    def test_negative_counts_rejected(self):
        digest = LatencyDigest()
        counts = np.zeros(digest.counts_size, dtype=np.int64)
        counts[3] = -1
        counts[4] = 2
        with pytest.raises(ExperimentError, match="non-negative"):
            digest.add_counts(counts, 1.0, 1.0)

    def test_negative_maximum_rejected(self):
        digest = LatencyDigest()
        counts = np.zeros(digest.counts_size, dtype=np.int64)
        counts[3] = 1
        with pytest.raises(ExperimentError, match="negative latency"):
            digest.add_counts(counts, 1.0, -0.5)

    def test_edges_view_is_read_only(self):
        digest = LatencyDigest()
        with pytest.raises(ValueError):
            digest.edges[0] = 0.0


class TestSharedGrid:
    """Every digest on one grid shares one read-only edges array, which is
    never pickled: a shard result sends counts, not 513 edges per digest."""

    def test_edges_are_one_read_only_array_per_grid(self):
        first, second = LatencyDigest(), LatencyDigest()
        assert first.edges is second.edges
        assert np.array_equal(
            first.edges,
            np.geomspace(
                LatencyDigest.DEFAULT_LOWEST,
                LatencyDigest.DEFAULT_HIGHEST,
                LatencyDigest.DEFAULT_BINS + 1,
            ),
        )
        other = LatencyDigest(bins=64, lowest=1e-3, highest=10.0)
        assert other.edges is not first.edges and other.edges.size == 65
        assert other.edges is LatencyDigest(bins=64, lowest=1e-3, highest=10.0).edges

    def test_pickle_carries_counts_but_not_edges(self):
        digest = LatencyDigest.from_samples(samples(31))
        digest.record_drop(3)
        payload = pickle.dumps(digest, protocol=pickle.HIGHEST_PROTOCOL)
        # The 514 int64 counts are 4,112 bytes; the 513 float64 edges would
        # add another 4,104.
        assert 4112 < len(payload) < 4700
        restored = pickle.loads(payload)
        assert restored.edges is digest.edges
        assert restored.stats() == digest.stats()
        for q in (50.0, 90.0, 99.0, 99.9):
            assert restored.percentile(q) == digest.percentile(q)

    def test_a_restored_digest_merges_with_a_fresh_one(self):
        parts = [samples(seed) for seed in (41, 42)]
        restored = pickle.loads(pickle.dumps(LatencyDigest.from_samples(parts[0])))
        fresh = LatencyDigest.from_samples(parts[1])
        fresh.merge(restored)
        assert fresh.stats() == LatencyDigest.from_samples(np.concatenate(parts)).stats()
