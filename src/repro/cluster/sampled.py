"""Sampled-aggregation cluster model.

Running a full event-driven simulation of 75 (let alone 650) machines at
thousands of queries per second is prohibitively slow in Python, so the large
cluster figures use a hybrid model:

1. The *per-machine* behaviour (latency distribution, drop rate, CPU
   breakdown under a given colocation scenario) is measured once with the
   detailed single-machine simulation.
2. The *cluster-level* behaviour is then sampled: for every request, one local
   latency is drawn per partition, the MLA latency is the maximum of those
   draws plus network and aggregation overheads, and the TLA latency adds the
   final hop.  This captures the tail-at-scale amplification (max over
   servers) that dominates multi-layer serving systems, which is the property
   Figure 9 and Figure 10 exercise.

Machine-to-machine heterogeneity is modelled with a per-machine latency scale
factor so that one consistently slow machine drags the whole row, as in a real
fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..config.schema import ClusterSpec
from ..errors import ClusterError
from ..metrics.latency import LatencyStats, latency_stats

__all__ = ["SampledLayerStats", "SampledClusterModel"]


@dataclass(frozen=True)
class SampledLayerStats:
    """Per-layer latency statistics produced by the sampled model."""

    local: LatencyStats
    mla: LatencyStats
    tla: LatencyStats

    def summary(self) -> Dict[str, float]:
        return {
            "local_avg_ms": self.local.as_millis()["mean_ms"],
            "local_p95_ms": self.local.as_millis()["p95_ms"],
            "local_p99_ms": self.local.as_millis()["p99_ms"],
            "mla_avg_ms": self.mla.as_millis()["mean_ms"],
            "mla_p95_ms": self.mla.as_millis()["p95_ms"],
            "mla_p99_ms": self.mla.as_millis()["p99_ms"],
            "tla_avg_ms": self.tla.as_millis()["mean_ms"],
            "tla_p95_ms": self.tla.as_millis()["p95_ms"],
            "tla_p99_ms": self.tla.as_millis()["p99_ms"],
        }


class SampledClusterModel:
    """Monte-Carlo aggregation of per-machine latency samples."""

    def __init__(
        self,
        cluster: ClusterSpec,
        local_latency_samples: Sequence[float],
        seed: int = 0,
        machine_skew_sigma: float = 0.03,
    ) -> None:
        samples = np.asarray(local_latency_samples, dtype=float)
        if samples.size < 10:
            raise ClusterError(
                "the sampled cluster model needs at least 10 per-machine latency samples"
            )
        if np.any(samples < 0):
            raise ClusterError("latency samples must be non-negative")
        self._cluster = cluster
        self._samples = samples
        self._rng = np.random.default_rng(seed)
        # Per-machine multiplicative skew (hardware generations, background
        # daemons): one factor per (row, partition) slot.
        skew = self._rng.lognormal(mean=0.0, sigma=machine_skew_sigma,
                                   size=(cluster.rows, cluster.partitions))
        self._machine_skew = skew

    @property
    def cluster(self) -> ClusterSpec:
        return self._cluster

    def simulate(self, num_requests: int) -> SampledLayerStats:
        """Sample ``num_requests`` requests through the aggregation tree."""
        if num_requests < 1:
            raise ClusterError("num_requests must be >= 1")
        cluster = self._cluster
        partitions = cluster.partitions
        rows = self._rng.integers(0, cluster.rows, size=num_requests)
        # Draw a (num_requests, partitions) matrix of local latencies.
        draws = self._rng.choice(self._samples, size=(num_requests, partitions), replace=True)
        draws = draws * self._machine_skew[rows, :]
        hop = cluster.network_hop_latency
        mla = draws.max(axis=1) + 2 * hop + cluster.mla_aggregation_cost
        tla = mla + 2 * hop + 2 * cluster.tla_aggregation_cost
        return SampledLayerStats(
            local=latency_stats(draws.ravel()),
            mla=latency_stats(mla),
            tla=latency_stats(tla),
        )

    def tail_at_scale_curve(
        self, partition_counts: Sequence[int], num_requests: int = 20_000
    ) -> Dict[int, float]:
        """P99 of the MLA layer as the fan-out width grows.

        Not a paper figure, but a useful ablation: it quantifies how the
        slowest-server effect amplifies the local tail, the phenomenon that
        makes per-machine isolation so critical in the first place.

        One latency matrix is drawn at the widest fan-out and every narrower
        width reuses its leading columns via a single running-max pass, so the
        whole curve costs one draw plus one batched percentile call — and the
        common random numbers make the curve monotone by construction.

        Each request samples a row and applies that row's per-machine skew to
        the leading ``widest`` columns, exactly as :meth:`simulate` does —
        the curve ablates the same heterogeneous fleet the full model serves,
        rather than an idealised skew-free one that understates the tail.
        """
        counts = list(partition_counts)
        if not counts:
            return {}
        if any(count < 1 for count in counts):
            raise ClusterError("partition counts must be >= 1")
        widest = max(counts)
        if widest > self._cluster.partitions:
            raise ClusterError(
                f"fan-out width {widest} exceeds the cluster's {self._cluster.partitions} "
                "partitions; the per-machine skew model only covers real partitions"
            )
        rows = self._rng.integers(0, self._cluster.rows, size=num_requests)
        draws = self._rng.choice(self._samples, size=(num_requests, widest), replace=True)
        draws = draws * self._machine_skew[rows, :widest]
        running_max = np.maximum.accumulate(draws, axis=1)
        overhead = 2 * self._cluster.network_hop_latency + self._cluster.mla_aggregation_cost
        columns = np.asarray([count - 1 for count in counts])
        p99s = np.percentile(running_max[:, columns] + overhead, 99.0, axis=0)
        return {count: float(p99) for count, p99 in zip(counts, p99s)}
