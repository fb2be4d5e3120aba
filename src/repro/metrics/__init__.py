"""Measurement utilities: latency percentiles and CPU breakdowns."""

from .cpu import CpuBreakdown, CpuUtilizationSampler
from .latency import LatencyCollector, LatencyStats

__all__ = [
    "CpuBreakdown",
    "CpuUtilizationSampler",
    "LatencyCollector",
    "LatencyStats",
]
