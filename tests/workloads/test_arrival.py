"""Tests for the open-loop client."""

import numpy as np
import pytest

from repro.config.schema import DiurnalSpec, IndexServeSpec, TraceSpec, WorkloadSpec
from repro.errors import ConfigError, TenantError
from repro.simulation.engine import SimulationEngine
from repro.workloads.arrival import OpenLoopClient
from repro.workloads.arrival_models import ArrivalModel, ConstantArrival, TraceArrival
from repro.workloads.query_trace import QueryTrace


@pytest.fixture
def trace(rng):
    return QueryTrace(IndexServeSpec(), size=100, rng=rng)


class RateCurve(ArrivalModel):
    """An arrival model that follows an arbitrary rate function."""

    def __init__(self, rate_fn):
        self._rate_fn = rate_fn

    def rate_at(self, t):
        return self._rate_fn(t)


def run_client(trace, model, duration, until, rng=None):
    """Run one client over a ``duration``-second workload with no warm-up.

    Returns the arrival times and the engine, run to ``until``.
    """
    engine = SimulationEngine()
    arrivals = []
    workload = WorkloadSpec(duration=duration, warmup=0.0)
    client = OpenLoopClient(
        engine,
        trace,
        model,
        workload,
        submit=lambda q, t: arrivals.append(t),
        rng=rng if rng is not None else np.random.default_rng(3),
    )
    client.start()
    engine.run(until=until)
    assert client.submitted == len(arrivals)
    return arrivals, engine


class TestOpenLoopClient:
    def test_submission_rate_close_to_target(self, trace):
        arrivals, engine = run_client(trace, ConstantArrival(500.0), duration=2.0, until=2.5)
        assert len(arrivals) == pytest.approx(1000, rel=0.15)
        # The run ended: the client left nothing scheduled.
        assert engine.pending_events == 0

    def test_open_loop_ignores_server_speed(self, trace):
        """Arrivals keep coming even if the 'server' never responds."""
        arrivals, _ = run_client(trace, ConstantArrival(200.0), duration=1.0, until=1.2)
        assert len(arrivals) > 150

    def test_no_arrivals_after_duration(self, trace):
        arrivals, engine = run_client(trace, ConstantArrival(100.0), duration=0.5, until=5.0)
        assert arrivals
        assert all(t < 0.5 for t in arrivals)
        assert engine.pending_events == 0

    def test_rate_follows_curve(self, trace):
        arrivals, _ = run_client(
            trace, RateCurve(lambda t: 1000 if t < 1.0 else 100), duration=2.0, until=2.5
        )
        first_half = sum(1 for t in arrivals if t < 1.0)
        second_half = sum(1 for t in arrivals if t >= 1.0)
        assert first_half > 5 * second_half

    def test_invalid_parameters_rejected(self):
        """The rate and the window the client reads are checked where they are set."""
        with pytest.raises(TenantError):
            ConstantArrival(0)
        with pytest.raises(ConfigError):
            WorkloadSpec(qps=0)
        with pytest.raises(ConfigError):
            WorkloadSpec(duration=0)


class TestVariableRateClient:
    """The client on a rate model that varies over time."""

    def test_invalid_duration_rejected(self):
        # A zero duration would make the idle recheck interval zero.
        with pytest.raises(ConfigError):
            WorkloadSpec(duration=0, diurnal=DiurnalSpec())


class TestZeroRateWindows:
    def test_idle_recheck_keeps_idle_windows_idle(self, trace):
        """A zero-rate window emits nothing at all, and the run still ends."""
        arrivals, engine = run_client(trace, RateCurve(lambda t: 0.0), duration=5.0, until=5.5)
        assert arrivals == []
        assert engine.pending_events == 0

    def test_idle_recheck_recovers_when_the_rate_returns(self, trace):
        """An idle leading bucket must not swallow the live rest of the run."""
        arrivals, _ = run_client(
            trace, RateCurve(lambda t: 0.0 if t < 5.0 else 200.0), duration=10.0, until=10.5
        )
        assert all(t >= 5.0 for t in arrivals)
        assert len(arrivals) == pytest.approx(1000, rel=0.15)

    def test_idle_rechecks_consume_no_rng_draws(self, trace):
        """Gap draws after an idle window match a run with no idle window."""
        duration = 4.0
        live_only, _ = run_client(
            trace, RateCurve(lambda t: 100.0), duration, until=4.5, rng=np.random.default_rng(9)
        )
        with_idle, _ = run_client(
            trace,
            RateCurve(lambda t: 0.0 if t < 1.0 else 100.0),
            duration,
            until=4.5,
            rng=np.random.default_rng(9),
        )
        # The first post-idle gap uses the same draw the live run used first,
        # paced from the first recheck at or after the end of the idle window.
        assert len(with_idle) > 0
        offset = with_idle[0] - (live_only[0] + 1.0)
        assert -1e-9 <= offset < duration / 256.0 + 1e-9
        # Every later gap is the live run's gap, draw for draw.
        count = min(len(live_only), len(with_idle)) - 1
        assert np.diff(with_idle)[:count] == pytest.approx(np.diff(live_only)[:count], rel=1e-9)

    def test_zero_qps_trace_bucket_submits_nothing(self, trace):
        model = TraceArrival(TraceSpec(bucket_seconds=0.5, qps=(400.0, 0.0, 400.0)))
        arrivals, _ = run_client(trace, model, duration=1.5, until=2.0)
        assert any(t < 0.5 for t in arrivals)
        assert any(t >= 1.0 for t in arrivals)
        assert not any(0.5 <= t < 1.0 for t in arrivals)
