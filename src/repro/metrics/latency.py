"""Latency collection and percentile statistics.

The paper's key metric is the 99th percentile of query response latency,
always reported alongside the median and 95th percentile.  The collector
below stores raw samples (an experiment produces at most a few hundred
thousand queries, which is cheap) and computes exact empirical percentiles
with numpy; the fleet tier, which sees far more queries, merges fixed-grid
histograms (:class:`LatencyDigest`) instead.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from ..errors import ExperimentError
from ..units import to_millis

__all__ = [
    "LatencyStats",
    "latency_stats",
    "LatencyCollector",
    "SlidingLatencyWindow",
    "LatencyDigest",
]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency distribution, in seconds."""

    count: int
    dropped: int
    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    maximum: float

    @property
    def drop_rate(self) -> float:
        total = self.count + self.dropped
        return self.dropped / total if total else 0.0

    def as_millis(self) -> Dict[str, float]:
        """The same statistics converted to milliseconds (for paper-style tables)."""
        return {
            "count": float(self.count),
            "dropped": float(self.dropped),
            "drop_rate_pct": self.drop_rate * 100.0,
            "mean_ms": to_millis(self.mean),
            "p50_ms": to_millis(self.p50),
            "p95_ms": to_millis(self.p95),
            "p99_ms": to_millis(self.p99),
            "p999_ms": to_millis(self.p999),
            "max_ms": to_millis(self.maximum),
        }


def _as_nonnegative_array(latencies: Iterable[float]) -> np.ndarray:
    """Coerce bulk samples to float64 and reject negative values."""
    values = np.asarray(
        latencies if isinstance(latencies, np.ndarray) else list(latencies),
        dtype=np.float64,
    )
    if values.size and np.any(values < 0):
        raise ExperimentError(f"negative latency recorded: {float(values.min())}")
    return values


def latency_stats(values: np.ndarray, dropped: int = 0) -> LatencyStats:
    """Summary statistics of ``values`` (seconds), plus a ``dropped`` count."""
    if values.size == 0:
        return LatencyStats(0, dropped, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    p50, p95, p99, p999 = np.percentile(values, [50.0, 95.0, 99.0, 99.9])
    return LatencyStats(
        count=int(values.size),
        dropped=dropped,
        mean=float(values.mean()),
        p50=float(p50),
        p95=float(p95),
        p99=float(p99),
        p999=float(p999),
        maximum=float(values.max()),
    )


class LatencyCollector:
    """Collects every latency sample produced after the warm-up boundary.

    Samples live in a preallocated, amortised-doubling ``float64`` buffer, so
    per-query recording is a single store, bulk ingestion (the sampled cluster
    model pools hundreds of thousands of per-machine samples) is one
    vectorised copy, and statistics are computed directly on the buffer view
    without materialising an intermediate list.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self, warmup_end: float = 0.0, observer=None) -> None:
        self._warmup_end = warmup_end
        self._buffer = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._count = 0
        self._dropped = 0
        #: Optional tee fed every served sample (including warmup) — e.g. a
        #: :class:`SlidingLatencyWindow` driving a latency-feedback controller,
        #: which must see live latencies the moment they happen.
        self._observer = observer

    @property
    def warmup_end(self) -> float:
        return self._warmup_end

    @property
    def sample_count(self) -> int:
        return self._count

    @property
    def dropped(self) -> int:
        return self._dropped

    def _reserve(self, extra: int) -> None:
        needed = self._count + extra
        if needed <= self._buffer.size:
            return
        capacity = self._buffer.size
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.float64)
        grown[: self._count] = self._buffer[: self._count]
        self._buffer = grown

    def record(self, completion_time: float, latency: float) -> None:
        """Record a successfully answered query.

        This is the per-query hot path: one bounds check, one store into the
        preallocated buffer (growth is amortised through :meth:`_reserve`).
        """
        if latency < 0:
            raise ExperimentError(f"negative latency recorded: {latency}")
        if self._observer is not None:
            self._observer.record(completion_time, latency)
        if completion_time < self._warmup_end:
            return
        count = self._count
        if count >= self._buffer.size:
            self._reserve(1)
        self._buffer[count] = latency
        self._count = count + 1

    def record_drop(self, drop_time: float) -> None:
        """Record a query dropped (timed out) at ``drop_time``."""
        if drop_time < self._warmup_end:
            return
        self._dropped += 1

    def extend(self, latencies: Iterable[float]) -> None:
        """Bulk-add post-warmup samples (used by the sampled cluster model)."""
        values = _as_nonnegative_array(latencies)
        if values.size == 0:
            return
        self._reserve(values.size)
        self._buffer[self._count: self._count + values.size] = values
        self._count += values.size

    def samples(self) -> np.ndarray:
        return self._buffer[: self._count].copy()

    def _view(self) -> np.ndarray:
        return self._buffer[: self._count]

    def stats(self) -> LatencyStats:
        return latency_stats(self._view(), self._dropped)

    def percentile(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        return float(np.percentile(self._view(), q))

    def percentile_since(self, cursor: int, q: float) -> "float | None":
        """The q-th percentile of samples recorded at index ``cursor`` on.

        Telemetry probes use this with a sample-count cursor to report the
        latency distribution of each probe interval straight off the
        existing buffer — no per-sample tee into a second window structure.
        ``None`` when no samples arrived since the cursor.
        """
        if cursor < 0:
            raise ExperimentError(f"negative sample cursor: {cursor}")
        if cursor >= self._count:
            return None
        return float(np.percentile(self._buffer[cursor: self._count], q))


class SlidingLatencyWindow:
    """Latency percentiles over a sliding wall-clock window.

    Feeds latency-feedback controllers (e.g. the PID challenger): the
    experiment's :class:`LatencyCollector` tees every served sample here via
    its ``observer`` hook, and the controller asks for the windowed P99 at
    poll time.  Samples older than ``window`` seconds are pruned lazily.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ExperimentError("sliding latency window must be positive")
        self._window = window
        self._times: deque = deque()
        self._values: deque = deque()

    @property
    def window(self) -> float:
        return self._window

    def __len__(self) -> int:
        return len(self._values)

    def record(self, completion_time: float, latency: float) -> None:
        if latency < 0:
            raise ExperimentError(f"negative latency recorded: {latency}")
        self._times.append(completion_time)
        self._values.append(latency)
        self._prune(completion_time)

    def percentile(self, q: float, now: float) -> "float | None":
        """The q-th percentile of samples in ``[now - window, now]``.

        ``None`` when the window holds no samples (callers hold their last
        decision rather than acting on a fabricated zero).
        """
        self._prune(now)
        if not self._values:
            return None
        values = np.fromiter(self._values, dtype=np.float64, count=len(self._values))
        return float(np.percentile(values, q))

    def p99(self, now: float) -> "float | None":
        return self.percentile(99.0, now)

    def _prune(self, now: float) -> None:
        cutoff = now - self._window
        times, values = self._times, self._values
        while times and times[0] < cutoff:
            times.popleft()
            values.popleft()


@functools.lru_cache(maxsize=None)
def _grid_edges(bins: int, lowest: float, highest: float) -> np.ndarray:
    """The read-only geometric bin edges of one digest grid, built once per
    process and shared by every digest on that grid."""
    edges = np.geomspace(lowest, highest, bins + 1)
    edges.flags.writeable = False
    return edges


class LatencyDigest:
    """Exactly-mergeable latency summary over fixed log-spaced bins.

    The fleet harness aggregates latency behaviour across thousands of
    machines simulated in separate shards (often separate processes), so it
    cannot pool raw samples the way :class:`LatencyCollector` does.  A digest
    is a histogram over a *fixed* geometric bin grid plus exact count / sum /
    max accumulators: merging the digests of disjoint shards yields, bit for
    bit, the digest of the union of their samples, so every statistic derived
    from a merged digest is independent of how the fleet was sharded.

    Percentiles are resolved to the geometric midpoint of the covering bin;
    with the default 512 bins spanning 20 us .. 120 s the relative
    quantisation error is ~1.5 %, far below the machine-to-machine variation
    the fleet model cares about.

    The bin edges are a pure function of the ``(bins, lowest, highest)``
    grid, so every digest on one grid shares a single read-only edges array:
    a digest costs one count vector, and pickling it sends its counts and
    accumulators but not its edges, which the receiving process looks up
    again.  Fleet shards do not send digests at all: each returns one count
    block over this grid, and the parent builds the merged digests from it
    through :meth:`add_counts`.
    """

    DEFAULT_BINS = 512
    DEFAULT_LOWEST = 20e-6
    DEFAULT_HIGHEST = 120.0

    def __init__(
        self,
        bins: int = DEFAULT_BINS,
        lowest: float = DEFAULT_LOWEST,
        highest: float = DEFAULT_HIGHEST,
    ) -> None:
        if bins < 1:
            raise ExperimentError("digest needs at least one bin")
        if not 0.0 < lowest < highest:
            raise ExperimentError("digest bounds must satisfy 0 < lowest < highest")
        self._bins = bins
        self._lowest = float(lowest)
        self._highest = float(highest)
        self._edges = _grid_edges(bins, self._lowest, self._highest)
        # Layout: [underflow, bin 1..bins, overflow].
        self._counts = np.zeros(bins + 2, dtype=np.int64)
        self._sum = 0.0
        self._max = 0.0
        self._dropped = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_edges"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._edges = _grid_edges(self._bins, self._lowest, self._highest)

    # ---------------------------------------------------------------- identity
    @property
    def grid(self) -> tuple:
        """The (bins, lowest, highest) triple two digests must share to merge."""
        return (self._bins, self._lowest, self._highest)

    @property
    def edges(self) -> np.ndarray:
        """The ``bins + 1`` geometric bin edges (the grid's shared read-only
        array).

        Exposed so bulk producers (the vectorised fleet shard) can bin large
        sample blocks themselves with one batched ``searchsorted``/``bincount``
        pass and feed the result through :meth:`add_counts`.
        """
        return self._edges

    @property
    def counts_size(self) -> int:
        """Length of the count vector :meth:`add_counts` expects
        (``bins + 2``: underflow, the bins, overflow)."""
        return self._counts.size

    @property
    def count(self) -> int:
        return int(self._counts.sum())

    @property
    def dropped(self) -> int:
        return self._dropped

    @property
    def maximum(self) -> float:
        return self._max

    # --------------------------------------------------------------- mutation
    def add(self, latencies: Iterable[float]) -> None:
        """Accumulate a batch of samples (seconds)."""
        values = _as_nonnegative_array(latencies)
        if values.size == 0:
            return
        indices = np.searchsorted(self._edges, values, side="right")
        self._counts += np.bincount(indices, minlength=self._counts.size).astype(np.int64)
        self._sum += float(values.sum())
        self._max = max(self._max, float(values.max()))

    def add_counts(self, counts: np.ndarray, total: float, maximum: float) -> None:
        """Accumulate pre-binned samples: the bulk-producer fast path.

        ``counts`` must be a full count vector over this digest's layout
        (``[underflow, bin 1..bins, overflow]``, see :attr:`counts_size`),
        already binned against :attr:`edges` with ``side="right"`` semantics —
        exactly what ``np.searchsorted(digest.edges, values, side="right")``
        followed by ``np.bincount`` produces.  ``total`` and ``maximum`` are
        the sum and max of the underlying samples; calling this is
        count-identical and sum/max-identical to :meth:`add` on the raw
        values, without this digest touching them.
        """
        counts = np.asarray(counts)
        if counts.shape != self._counts.shape:
            raise ExperimentError(
                f"count vector has shape {counts.shape}, digest expects "
                f"{self._counts.shape} (underflow + {self._bins} bins + overflow)"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            raise ExperimentError("count vector must be integral")
        if np.any(counts < 0):
            raise ExperimentError("count vector must be non-negative")
        added = int(counts.sum())
        if added == 0:
            return
        if maximum < 0.0:
            raise ExperimentError(f"negative latency recorded: {maximum}")
        self._counts += counts.astype(np.int64, copy=False)
        self._sum += float(total)
        self._max = max(self._max, float(maximum))

    def record_drop(self, count: int = 1) -> None:
        self._dropped += count

    def merge(self, other: "LatencyDigest") -> None:
        """Fold ``other`` into this digest (grids must match exactly)."""
        if self.grid != other.grid:
            raise ExperimentError(
                f"cannot merge digests with different grids: {self.grid} vs {other.grid}"
            )
        self._counts += other._counts
        self._sum += other._sum
        self._max = max(self._max, other._max)
        self._dropped += other._dropped

    def copy(self) -> "LatencyDigest":
        clone = LatencyDigest(self._bins, self._lowest, self._highest)
        clone._counts = self._counts.copy()
        clone._sum = self._sum
        clone._max = self._max
        clone._dropped = self._dropped
        return clone

    @classmethod
    def from_samples(cls, latencies: Iterable[float], **grid: float) -> "LatencyDigest":
        digest = cls(**grid)
        digest.add(latencies)
        return digest

    @classmethod
    def merged(cls, parts: Sequence["LatencyDigest"]) -> "LatencyDigest":
        """A new digest holding the union of ``parts`` (empty parts allowed)."""
        parts = list(parts)
        if not parts:
            return cls()
        merged = parts[0].copy()
        for part in parts[1:]:
            merged.merge(part)
        return merged

    # ---------------------------------------------------------------- queries
    def percentile(self, q: float) -> float:
        """The q-th percentile, resolved within the covering bin."""
        total = self.count
        if total == 0:
            return 0.0
        target = q / 100.0 * total
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, max(target, 1e-12), side="left"))
        index = min(index, self._bins + 1)
        if index == 0:
            value = self._lowest
        elif index == self._bins + 1:
            value = self._max
        else:
            value = float(np.sqrt(self._edges[index - 1] * self._edges[index]))
        return min(value, self._max)

    def stats(self) -> LatencyStats:
        total = self.count
        if total == 0:
            return LatencyStats(0, self._dropped, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencyStats(
            count=total,
            dropped=self._dropped,
            mean=self._sum / total,
            p50=self.percentile(50.0),
            p95=self.percentile(95.0),
            p99=self.percentile(99.0),
            p999=self.percentile(99.9),
            maximum=self._max,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyDigest(count={self.count}, max={self._max:.6f})"
