"""Generic (time, value) series: offered-load curves and telemetry metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ExperimentError

__all__ = ["TimeSeries"]


@dataclass(frozen=True)
class _Point:
    time: float
    value: float


class TimeSeries:
    """An append-only (time, value) series with basic summarisation."""

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._points: List[_Point] = []

    def __len__(self) -> int:
        return len(self._points)

    @classmethod
    def from_function(
        cls,
        name: str,
        fn,
        start: float,
        stop: float,
        step: float,
        unit: str = "",
    ) -> "TimeSeries":
        """Sample ``fn(t)`` at ``start, start + step, ...`` up to ``stop``.

        Sample times are computed as ``start + i * step`` (not accumulated),
        so the series is a pure function of its arguments — used to record
        the offered-load curve of time-varying arrival models.
        """
        if step <= 0:
            raise ExperimentError("from_function step must be positive")
        if stop < start:
            raise ExperimentError("from_function needs stop >= start")
        series = cls(name, unit)
        samples = int((stop - start) / step) + 1
        for index in range(samples):
            t = start + index * step
            series.append(t, float(fn(t)))
        return series

    def append(self, time: float, value: float) -> None:
        if self._points and time < self._points[-1].time:
            raise ExperimentError(
                f"time series {self.name!r} must be appended in time order "
                f"({time} < {self._points[-1].time})"
            )
        self._points.append(_Point(time, float(value)))

    def times(self) -> np.ndarray:
        return np.asarray([p.time for p in self._points], dtype=float)

    def values(self) -> np.ndarray:
        return np.asarray([p.value for p in self._points], dtype=float)

    def mean(self) -> float:
        return float(self.values().mean()) if self._points else 0.0

    def maximum(self) -> float:
        return float(self.values().max()) if self._points else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.values(), q)) if self._points else 0.0

    def resample(self, bucket: float) -> "TimeSeries":
        """Average values into fixed-width buckets (for plotting long runs)."""
        if bucket <= 0:
            raise ExperimentError("resample bucket must be positive")
        result = TimeSeries(self.name, self.unit)
        if not self._points:
            return result
        times = self.times()
        values = self.values()
        start = times[0]
        edges = np.arange(start, times[-1] + bucket, bucket)
        indices = np.digitize(times, edges)
        for bucket_index in np.unique(indices):
            mask = indices == bucket_index
            result.append(float(times[mask].mean()), float(values[mask].mean()))
        return result

    def rows(self) -> List[Tuple[float, float]]:
        return [(p.time, p.value) for p in self._points]
