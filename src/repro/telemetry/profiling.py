"""The one profiling entry point (host-side and simulation-side).

Two profilers historically lived in different packages and are consolidated
here under the telemetry umbrella:

* :func:`run_profiled` — the ``--profile PATH`` cProfile wrapper shared by
  the matrix and fleet command lines (formerly ``repro.runtime.profiling``);
* :class:`BufferCoreProfiler` — the offline Section 4.1 burst profiler that
  recommends a buffer-core count from the primary's ready-thread burstiness
  (formerly ``repro.core.profiling``).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, TypeVar

import numpy as np

from ..config.schema import IndexServeSpec
from ..errors import IsolationError
from ..simulation.randomness import RandomStreams
from ..units import micros
from ..workloads.query_trace import QueryTrace

__all__ = ["BurstProfile", "BufferCoreProfiler", "run_profiled", "REPORT_LINES"]

T = TypeVar("T")

#: Number of entries included in the written cProfile report.
REPORT_LINES = 60


def run_profiled(fn: Callable[[], T], profile_path: str) -> T:
    """Run ``fn`` under cProfile and write a cumulative-time report.

    The report is written even when ``fn`` raises, so a failing run still
    leaves its profile behind for inspection.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result: Any = fn()
    finally:
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(REPORT_LINES)
        with open(profile_path, "w", encoding="utf-8") as handle:
            handle.write(stream.getvalue())
    return result


@dataclass(frozen=True)
class BurstProfile:
    """Distribution of ready-thread bursts observed during profiling."""

    window: float
    qps: float
    duration: float
    max_burst: int
    p50_burst: float
    p99_burst: float
    p999_burst: float
    recommended_buffer_cores: int
    histogram: Dict[int, int]


class BufferCoreProfiler:
    """Derives a buffer-core recommendation from the primary's burstiness.

    Choosing the number of buffer cores requires a one-off measurement of the
    primary under its provisioned peak load: how many worker threads can
    become ready for execution within a very short window (the paper observes
    up to 15 threads in 5 microseconds, and settles on 8 buffer cores for its
    servers).  The profiler replays the primary's arrival and fan-out model
    at peak load, builds the distribution of "threads becoming ready per
    window", and recommends a high percentile of it — conservative enough to
    absorb bursts, without reserving half the machine.
    """

    def __init__(
        self,
        spec: IndexServeSpec,
        seed: int = 0,
        window: float = micros(5),
    ) -> None:
        if window <= 0:
            raise IsolationError("profiling window must be positive")
        self._spec = spec
        self._window = window
        self._streams = RandomStreams(seed)

    def profile(
        self,
        peak_qps: float = 4000.0,
        duration: float = 5.0,
        percentile: float = 99.0,
        minimum: int = 2,
    ) -> BurstProfile:
        """Replay ``duration`` seconds of peak-load arrivals and measure bursts.

        ``percentile`` selects how aggressive the recommendation is: the
        recommended buffer is the chosen percentile of the per-window burst
        size, never below ``minimum``.
        """
        if peak_qps <= 0 or duration <= 0:
            raise IsolationError("peak_qps and duration must be positive")
        rng = self._streams.stream("profiler")
        trace = QueryTrace(self._spec, size=min(20_000, max(1000, int(peak_qps * duration))),
                           rng=self._streams.stream("profiler-trace"))

        expected_arrivals = int(peak_qps * duration)
        gaps = rng.exponential(1.0 / peak_qps, size=expected_arrivals)
        arrival_times = np.cumsum(gaps)
        arrival_times = arrival_times[arrival_times < duration]

        # Every query wakes its whole worker pack essentially at once; two
        # queries landing in the same window compound.
        bursts: List[int] = []
        histogram: Dict[int, int] = {}
        trace_cycle = trace.cycle()
        window = self._window
        current_window_end = window
        current_burst = 0
        for arrival in arrival_times:
            workers = next(trace_cycle).worker_count
            if arrival <= current_window_end:
                current_burst += workers
            else:
                if current_burst > 0:
                    bursts.append(current_burst)
                    histogram[current_burst] = histogram.get(current_burst, 0) + 1
                current_window_end = (int(arrival / window) + 1) * window
                current_burst = workers
        if current_burst > 0:
            bursts.append(current_burst)
            histogram[current_burst] = histogram.get(current_burst, 0) + 1

        if not bursts:
            raise IsolationError("profiling produced no arrivals; increase qps or duration")
        burst_array = np.asarray(bursts, dtype=float)
        recommended = max(minimum, int(np.ceil(np.percentile(burst_array, percentile))))
        return BurstProfile(
            window=window,
            qps=peak_qps,
            duration=duration,
            max_burst=int(burst_array.max()),
            p50_burst=float(np.percentile(burst_array, 50.0)),
            p99_burst=float(np.percentile(burst_array, 99.0)),
            p999_burst=float(np.percentile(burst_array, 99.9)),
            recommended_buffer_cores=recommended,
            histogram=histogram,
        )
