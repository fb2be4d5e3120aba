"""Arrival-rate models and trace synthesis.

The paper's evaluation rests on IndexServe's *production* traffic shape —
diurnal swings and bursts are exactly what makes a static idle-core buffer
interesting — so besides a constant rate (:class:`ConstantArrival`) the
workload layer models four time-varying arrival processes:

* :class:`DiurnalArrival` — sinusoidal day/night swing with a phase offset
  (shared with the fleet model's per-row curves, so the two cannot drift);
* :class:`BurstyArrival` — a two-state Markov-modulated Poisson process whose
  state path is pre-drawn from a named random stream;
* :class:`FlashCrowdArrival` — base load with a linear ramp/hold/decay spike;
* :class:`TraceArrival` — cyclic replay of a bucketed QPS trace
  (:class:`~repro.config.schema.TraceSpec`, loaded from JSONL/CSV files by
  :mod:`repro.config.traces`).

Every model is a deterministic rate function ``rate_at(t)``; the one
:class:`~repro.workloads.arrival.OpenLoopClient` reads it with batched
standard-exponential gap draws, so arrival sequences stay bit-identical at
any worker count.  :func:`synthesize_trace` flattens any parametric model
into a replayable :class:`TraceSpec`, which is what the
``python -m repro.workloads`` CLI writes to trace files.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional

import numpy as np

from ..config.schema import (
    BurstySpec,
    DiurnalSpec,
    FlashCrowdSpec,
    TraceSpec,
    WorkloadSpec,
)
from ..errors import TenantError

__all__ = [
    "ArrivalModel",
    "ConstantArrival",
    "DiurnalArrival",
    "BurstyArrival",
    "FlashCrowdArrival",
    "TraceArrival",
    "build_arrival_model",
    "synthesize_trace",
]

#: Name of the random stream arrival models draw from (bursty state paths).
ARRIVAL_MODEL_STREAM = "arrival-model"


class ArrivalModel:
    """A deterministic instantaneous-rate function of simulated time."""

    #: Which workload field configured this model ("constant" for none).
    kind = "constant"

    def rate_at(self, t: float) -> float:
        """Offered queries/second at simulated time ``t``."""
        raise NotImplementedError

    def peak_in(self, start: float, end: float) -> float:
        """The exact maximum rate over the window ``[start, end]``.

        Unlike sampling the rate curve, this cannot miss a spike or burst
        narrower than a sampling step; each model computes it analytically.
        """
        raise NotImplementedError


class ConstantArrival(ArrivalModel):
    """A constant rate: the model of every workload that sets no other."""

    def __init__(self, qps: float) -> None:
        if qps <= 0:
            raise TenantError("constant arrival rate must be positive")
        self._qps = qps

    def rate_at(self, t: float) -> float:
        return self._qps

    def peak_in(self, start: float, end: float) -> float:
        return self._qps


class DiurnalArrival(ArrivalModel):
    """Sinusoidal diurnal load.

    The arithmetic matches the fleet model's historical per-row curve term
    for term (``max(floor, mid + amplitude * cos(2*pi*(t/period + phase)))``)
    so :meth:`repro.fleet.model.FleetModel.load_at` can delegate here and stay
    bit-identical to its pre-refactor output.
    """

    kind = "diurnal"

    def __init__(self, spec: DiurnalSpec) -> None:
        self._spec = spec
        self._mid = (spec.peak_qps + spec.trough_qps) / 2.0
        self._amplitude = (spec.peak_qps - spec.trough_qps) / 2.0
        self._period = spec.period
        self._phase_offset = spec.phase_offset
        self._floor = spec.floor_qps

    @property
    def spec(self) -> DiurnalSpec:
        return self._spec

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * (t / self._period + self._phase_offset)
        return max(self._floor, self._mid + self._amplitude * math.cos(phase))

    def peak_in(self, start: float, end: float) -> float:
        # Peaks sit where t/period + phase_offset is an integer; if none
        # falls inside the window, the cosine is monotone towards/away from
        # the nearest trough and the maximum is at a window endpoint.
        first_peak = (
            math.ceil(start / self._period + self._phase_offset) - self._phase_offset
        ) * self._period
        if start <= first_peak <= end:
            return max(self._floor, self._spec.peak_qps)
        return max(self.rate_at(start), self.rate_at(end))


class BurstyArrival(ArrivalModel):
    """Two-state Markov-modulated Poisson process (normal <-> burst).

    The full state path over ``[0, horizon]`` is pre-drawn at construction
    from the named ``"arrival-model"`` stream — one exponential dwell draw per
    segment — so the rate function is pure thereafter and the arrival process
    is byte-identical no matter how the experiment is executed.  Past the
    horizon the last state persists.
    """

    kind = "bursty"

    def __init__(self, spec: BurstySpec, horizon: float, rng: np.random.Generator) -> None:
        if horizon <= 0:
            raise TenantError("bursty arrival horizon must be positive")
        self._spec = spec
        self._rates = (spec.base_qps, spec.burst_qps)
        means = (spec.mean_normal_seconds, spec.mean_burst_seconds)
        boundaries = []
        states = []
        state = 0
        now = 0.0
        while now < horizon:
            now += float(rng.exponential(means[state]))
            boundaries.append(now)
            states.append(state)
            state = 1 - state
        #: ``states[i]`` applies up to (not including) ``boundaries[i]``.
        self._boundaries = boundaries
        self._states = states

    @property
    def spec(self) -> BurstySpec:
        return self._spec

    def rate_at(self, t: float) -> float:
        index = bisect_right(self._boundaries, t)
        if index >= len(self._states):
            index = len(self._states) - 1
        return self._rates[self._states[index]]

    def peak_in(self, start: float, end: float) -> float:
        first = min(bisect_right(self._boundaries, start), len(self._states) - 1)
        last = min(bisect_right(self._boundaries, end), len(self._states) - 1)
        if any(self._states[index] for index in range(first, last + 1)):
            return self._spec.burst_qps
        return self._spec.base_qps


class FlashCrowdArrival(ArrivalModel):
    """Base load with one linear ramp -> hold -> decay spike."""

    kind = "flash_crowd"

    def __init__(self, spec: FlashCrowdSpec) -> None:
        self._spec = spec

    @property
    def spec(self) -> FlashCrowdSpec:
        return self._spec

    def rate_at(self, t: float) -> float:
        spec = self._spec
        offset = t - spec.start
        if offset <= 0.0 or offset >= spec.end - spec.start:
            return spec.base_qps
        lift = spec.spike_qps - spec.base_qps
        if offset < spec.ramp:
            return spec.base_qps + lift * (offset / spec.ramp)
        offset -= spec.ramp
        if offset < spec.hold:
            return spec.spike_qps
        offset -= spec.hold
        return spec.base_qps + lift * (1.0 - offset / spec.decay)

    def peak_in(self, start: float, end: float) -> float:
        # The rate is piecewise linear, so the window maximum is attained at
        # a window endpoint or at a spike phase boundary inside the window.
        spec = self._spec
        candidates = [self.rate_at(start), self.rate_at(end)]
        for boundary in (
            spec.start + spec.ramp,
            spec.start + spec.ramp + spec.hold,
        ):
            if start <= boundary <= end:
                candidates.append(self.rate_at(boundary))
        return max(candidates)


class TraceArrival(ArrivalModel):
    """Cyclic piecewise-constant replay of a bucketed QPS trace."""

    kind = "trace"

    def __init__(self, spec: TraceSpec) -> None:
        self._spec = spec
        self._bucket_seconds = spec.bucket_seconds
        self._qps = spec.qps
        self._buckets = len(spec.qps)

    @property
    def spec(self) -> TraceSpec:
        return self._spec

    def rate_at(self, t: float) -> float:
        if t < 0.0:
            t = 0.0
        return self._qps[int(t / self._bucket_seconds) % self._buckets]

    def peak_in(self, start: float, end: float) -> float:
        first = int(max(0.0, start) / self._bucket_seconds)
        last = int(max(0.0, end) / self._bucket_seconds)
        if last - first + 1 >= self._buckets:
            return self._spec.peak_qps
        return max(self._qps[index % self._buckets] for index in range(first, last + 1))


def build_arrival_model(
    workload: WorkloadSpec,
    horizon: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> ArrivalModel:
    """The runtime model for ``workload``'s arrival spec.

    A workload that sets no arrival model runs at ``ConstantArrival(qps)``.

    ``horizon`` defaults to the workload's total time; ``rng`` (the named
    ``"arrival-model"`` stream) is only consumed by models that need draws —
    today the bursty state path — and is required for those.
    """
    spec = workload.arrival_model_spec
    if spec is None:
        return ConstantArrival(workload.qps)
    if horizon is None:
        horizon = workload.total_time
    if isinstance(spec, DiurnalSpec):
        return DiurnalArrival(spec)
    if isinstance(spec, FlashCrowdSpec):
        return FlashCrowdArrival(spec)
    if isinstance(spec, TraceSpec):
        return TraceArrival(spec)
    if isinstance(spec, BurstySpec):
        if rng is None:
            raise TenantError(
                "bursty arrivals draw their state path from the "
                f"{ARRIVAL_MODEL_STREAM!r} stream; pass rng="
            )
        return BurstyArrival(spec, horizon=horizon, rng=rng)
    raise TenantError(f"unknown arrival model spec {type(spec).__name__}")


def synthesize_trace(
    model: ArrivalModel,
    duration: float,
    bucket_seconds: float,
    source: Optional[str] = None,
) -> TraceSpec:
    """Flatten ``model`` into a replayable bucketed trace.

    Each bucket records the model's rate at the bucket midpoint, so replaying
    the result through :class:`TraceArrival` reproduces the parametric model
    up to bucketing resolution — and reproduces *itself* exactly, which is
    what the round-trip tests pin down.
    """
    if duration <= 0 or bucket_seconds <= 0:
        raise TenantError("synthesize_trace needs positive duration and bucket size")
    # Enough buckets to cover the full duration (the last bucket may run a
    # fraction past it); rounding down would silently shorten the trace and
    # make exact-window replays wrap early.  The epsilon forgives float noise
    # in duration/bucket ratios that are exact by construction.
    buckets = max(1, math.ceil(duration / bucket_seconds - 1e-9))
    qps = tuple(float(model.rate_at((i + 0.5) * bucket_seconds)) for i in range(buckets))
    return TraceSpec(
        bucket_seconds=bucket_seconds,
        qps=qps,
        source=source if source is not None else f"synthetic:{model.kind}",
    )
