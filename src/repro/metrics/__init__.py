"""Measurement utilities: latency percentiles, CPU breakdowns, time series."""

from .cpu import CpuBreakdown, CpuUtilizationSampler
from .latency import LatencyCollector, LatencyStats
from .timeseries import TimeSeries

__all__ = [
    "CpuBreakdown",
    "CpuUtilizationSampler",
    "LatencyCollector",
    "LatencyStats",
    "TimeSeries",
]
