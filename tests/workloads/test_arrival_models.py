"""Tests for the time-varying arrival models and trace synthesis."""

import math

import numpy as np
import pytest

from repro.config.schema import (
    BurstySpec,
    DiurnalSpec,
    FlashCrowdSpec,
    TraceSpec,
    WorkloadSpec,
)
from repro.errors import ConfigError, TenantError
from repro.workloads.arrival_models import (
    BurstyArrival,
    ConstantArrival,
    DiurnalArrival,
    FlashCrowdArrival,
    TraceArrival,
    build_arrival_model,
    synthesize_trace,
)


class TestDiurnalArrival:
    def test_peak_and_trough_at_phase_points(self):
        spec = DiurnalSpec(peak_qps=4000.0, trough_qps=1600.0, period=100.0)
        model = DiurnalArrival(spec)
        assert model.rate_at(0.0) == pytest.approx(4000.0)
        assert model.rate_at(50.0) == pytest.approx(1600.0)
        assert model.rate_at(100.0) == pytest.approx(4000.0)

    def test_matches_the_fleet_formula_bit_for_bit(self):
        """The exact arithmetic the fleet model used before the refactor."""
        spec = DiurnalSpec(
            peak_qps=4200.0, trough_qps=1500.0, period=3600.0, phase_offset=0.375
        )
        model = DiurnalArrival(spec)
        for t in (0.0, 17.3, 900.0, 1800.5, 3599.9, 7200.0):
            mid = (spec.peak_qps + spec.trough_qps) / 2.0
            amplitude = (spec.peak_qps - spec.trough_qps) / 2.0
            phase = 2.0 * math.pi * (t / spec.period + spec.phase_offset)
            expected = max(1.0, mid + amplitude * math.cos(phase))
            assert model.rate_at(t) == expected

    def test_phase_offset_shifts_the_peak(self):
        shifted = DiurnalArrival(DiurnalSpec(period=100.0, phase_offset=0.5))
        assert shifted.rate_at(0.0) == pytest.approx(1600.0)
        assert shifted.rate_at(50.0) == pytest.approx(4000.0)

    def test_floor_binds_when_trough_is_tiny(self):
        model = DiurnalArrival(
            DiurnalSpec(peak_qps=10.0, trough_qps=0.5, period=10.0, floor_qps=2.0)
        )
        assert model.rate_at(5.0) == 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiurnalSpec(peak_qps=100.0, trough_qps=100.0)
        with pytest.raises(ConfigError):
            DiurnalSpec(period=0.0)
        with pytest.raises(ConfigError):
            DiurnalSpec(phase_offset=1.0)


class TestBurstyArrival:
    def _model(self, seed=3, horizon=30.0):
        spec = BurstySpec(
            base_qps=1000.0,
            burst_qps=5000.0,
            mean_normal_seconds=2.0,
            mean_burst_seconds=0.5,
        )
        return BurstyArrival(spec, horizon=horizon, rng=np.random.default_rng(seed))

    def test_rates_alternate_between_the_two_levels(self):
        model = self._model()
        rates = {model.rate_at(t) for t in np.linspace(0.0, 30.0, 400)}
        assert rates <= {1000.0, 5000.0}
        assert len(rates) == 2  # long enough horizon to visit both states

    def test_starts_in_the_normal_state(self):
        assert self._model().rate_at(0.0) == 1000.0

    def test_deterministic_given_the_same_stream(self):
        a, b = self._model(seed=7), self._model(seed=7)
        times = np.linspace(0.0, 30.0, 200)
        assert [a.rate_at(t) for t in times] == [b.rate_at(t) for t in times]

    def test_last_state_persists_past_the_horizon(self):
        model = self._model()
        assert model.rate_at(1e6) == model.rate_at(1e9)

    def test_segments_cover_the_horizon(self):
        # The path drawn over a 50 s horizon leaves the normal state in it.
        model = self._model(horizon=50.0)
        assert model.peak_in(0.0, 50.0) == model.spec.burst_qps

    def test_validation(self):
        with pytest.raises(ConfigError):
            BurstySpec(base_qps=2000.0, burst_qps=2000.0)
        with pytest.raises(ConfigError):
            BurstySpec(mean_normal_seconds=0.0)
        with pytest.raises(TenantError):
            BurstyArrival(BurstySpec(), horizon=0.0, rng=np.random.default_rng(0))


class TestFlashCrowdArrival:
    SPEC = FlashCrowdSpec(
        base_qps=1000.0, spike_qps=3000.0, start=10.0, ramp=2.0, hold=4.0, decay=2.0
    )

    def test_piecewise_shape(self):
        model = FlashCrowdArrival(self.SPEC)
        assert model.rate_at(0.0) == 1000.0
        assert model.rate_at(10.0) == 1000.0  # spike starts here
        assert model.rate_at(11.0) == pytest.approx(2000.0)  # mid-ramp
        assert model.rate_at(13.0) == 3000.0  # holding
        assert model.rate_at(17.0) == pytest.approx(2000.0)  # mid-decay
        assert model.rate_at(18.0) == 1000.0
        assert model.rate_at(100.0) == 1000.0

    def test_instant_ramp_and_decay(self):
        spec = FlashCrowdSpec(
            base_qps=500.0, spike_qps=1500.0, start=1.0, ramp=0.0, hold=2.0, decay=0.0
        )
        model = FlashCrowdArrival(spec)
        assert model.rate_at(0.5) == 500.0
        assert model.rate_at(2.0) == 1500.0
        assert model.rate_at(3.5) == 500.0

    def test_peak_rate_depends_on_the_horizon(self):
        model = FlashCrowdArrival(self.SPEC)
        assert model.peak_in(0.0, 5.0) == 1000.0
        assert model.peak_in(0.0, 20.0) == 3000.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            FlashCrowdSpec(base_qps=2000.0, spike_qps=1000.0)
        with pytest.raises(ConfigError):
            FlashCrowdSpec(start=-1.0)


class TestTraceArrival:
    def test_piecewise_constant_with_cyclic_wrap(self):
        trace = TraceSpec(bucket_seconds=2.0, qps=(100.0, 200.0, 300.0))
        model = TraceArrival(trace)
        assert model.rate_at(0.0) == 100.0
        assert model.rate_at(1.99) == 100.0
        assert model.rate_at(2.0) == 200.0
        assert model.rate_at(5.0) == 300.0
        assert model.rate_at(6.0) == 100.0  # wrapped around
        assert model.rate_at(-1.0) == 100.0  # clamped

    def test_validation(self):
        with pytest.raises(ConfigError):
            TraceSpec(bucket_seconds=0.0, qps=(1.0,))
        with pytest.raises(ConfigError):
            TraceSpec(bucket_seconds=1.0, qps=())
        with pytest.raises(ConfigError):
            TraceSpec(bucket_seconds=1.0, qps=(1.0, -2.0))
        with pytest.raises(ConfigError):
            TraceSpec(bucket_seconds=1.0, qps=(0.0, 0.0))
        with pytest.raises(ConfigError):
            TraceSpec(bucket_seconds=1.0, qps=(float("nan"),))


class TestWorkloadSpecArrival:
    def test_at_most_one_model(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(diurnal=DiurnalSpec(), bursty=BurstySpec())

    def test_arrival_kind_reporting(self):
        assert WorkloadSpec().arrival_kind == "constant"
        assert WorkloadSpec(trace=TraceSpec(1.0, (5.0,))).arrival_kind == "trace"

    def test_mean_qps_per_model(self):
        assert WorkloadSpec(qps=700.0).mean_qps == 700.0
        # One full diurnal period: the sine terms cancel and the window mean
        # is exactly the midpoint.
        full_cycle = WorkloadSpec(
            duration=10.0,
            warmup=1.0,
            diurnal=DiurnalSpec(peak_qps=400.0, trough_qps=200.0, period=11.0),
        )
        assert full_cycle.mean_qps == pytest.approx(300.0)
        # An 11 s window at the trough of an hour-long period sizes for the
        # trough, not the midpoint.
        at_trough = WorkloadSpec(
            duration=10.0,
            warmup=1.0,
            diurnal=DiurnalSpec(
                peak_qps=4000.0, trough_qps=1600.0, period=3600.0, phase_offset=0.5
            ),
        )
        assert at_trough.mean_qps == pytest.approx(1600.0, rel=1e-3)
        # Default window: 11 s over a 2 s trace = 5 full cycles + 1 s of the
        # first bucket -> (5*400 + 100) / 11.
        trace = WorkloadSpec(trace=TraceSpec(1.0, (100.0, 300.0)))
        assert trace.mean_qps == pytest.approx(2100.0 / 11.0)

    def test_trace_mean_qps_covers_only_the_replayed_window(self):
        # 1 s window over a 40 s front-loaded trace: only the first bucket
        # (100 qps) is ever replayed.
        front_loaded = WorkloadSpec(
            duration=1.0,
            warmup=0.0,
            trace=TraceSpec(10.0, (100.0, 0.0, 0.0, 0.0)),
        )
        assert front_loaded.mean_qps == pytest.approx(100.0)
        # 15 s window: 10 s at 100 qps + 5 s idle.
        partial = WorkloadSpec(
            duration=15.0,
            warmup=0.0,
            trace=TraceSpec(10.0, (100.0, 0.0, 0.0, 0.0)),
        )
        assert partial.mean_qps == pytest.approx(100.0 * 10.0 / 15.0)
        # 80 s window: two full cyclic passes average the whole trace.
        wrapped = WorkloadSpec(
            duration=80.0,
            warmup=0.0,
            trace=TraceSpec(10.0, (100.0, 0.0, 0.0, 0.0)),
        )
        assert wrapped.mean_qps == pytest.approx(25.0)
        flash = WorkloadSpec(
            duration=9.0,
            warmup=1.0,
            flash_crowd=FlashCrowdSpec(
                base_qps=1000.0, spike_qps=2000.0, start=2.0, ramp=2.0, hold=2.0, decay=2.0
            ),
        )
        # 0.5*2 + 2 + 0.5*2 = 4 spike-equivalent seconds over 10 s.
        assert flash.mean_qps == pytest.approx(1000.0 + 1000.0 * 4.0 / 10.0)

    def test_flash_crowd_mean_qps_ending_mid_spike(self):
        # Window ends halfway up the ramp: the in-window excess is the
        # triangle integral 1^2/(2*2) = 0.25 spike-equivalent seconds.
        mid_ramp = WorkloadSpec(
            duration=2.5,
            warmup=0.5,
            flash_crowd=FlashCrowdSpec(
                base_qps=1000.0, spike_qps=2000.0, start=2.0, ramp=2.0, hold=5.0, decay=2.0
            ),
        )
        assert mid_ramp.mean_qps == pytest.approx(1000.0 + 1000.0 * 0.25 / 3.0)
        # Window ends mid-hold: full ramp (1 s) plus one held second.
        mid_hold = WorkloadSpec(
            duration=4.5,
            warmup=0.5,
            flash_crowd=FlashCrowdSpec(
                base_qps=1000.0, spike_qps=2000.0, start=2.0, ramp=2.0, hold=5.0, decay=2.0
            ),
        )
        assert mid_hold.mean_qps == pytest.approx(1000.0 + 1000.0 * 2.0 / 5.0)


class TestBuildArrivalModel:
    def test_constant_workload_returns_none(self):
        """A workload with no arrival model runs at ConstantArrival, never None."""
        model = build_arrival_model(WorkloadSpec(qps=750.0))
        assert isinstance(model, ConstantArrival)
        assert model.rate_at(0.0) == 750.0
        assert model.peak_in(0.0, 11.0) == 750.0

    def test_dispatch(self):
        rng = np.random.default_rng(0)
        cases = [
            (WorkloadSpec(diurnal=DiurnalSpec()), DiurnalArrival),
            (WorkloadSpec(bursty=BurstySpec()), BurstyArrival),
            (WorkloadSpec(flash_crowd=FlashCrowdSpec()), FlashCrowdArrival),
            (WorkloadSpec(trace=TraceSpec(1.0, (5.0,))), TraceArrival),
        ]
        for workload, expected in cases:
            assert isinstance(build_arrival_model(workload, rng=rng), expected)

    def test_bursty_requires_a_stream(self):
        with pytest.raises(TenantError):
            build_arrival_model(WorkloadSpec(bursty=BurstySpec()))


class TestSynthesizeTrace:
    def test_bucket_midpoint_sampling(self):
        model = ConstantArrival(123.0)
        trace = synthesize_trace(model, duration=10.0, bucket_seconds=1.0)
        assert len(trace.qps) == 10
        assert set(trace.qps) == {123.0}
        assert trace.source == "synthetic:constant"

    def test_replay_reproduces_the_model_at_midpoints(self):
        model = DiurnalArrival(DiurnalSpec(peak_qps=900.0, trough_qps=300.0, period=20.0))
        trace = synthesize_trace(model, duration=20.0, bucket_seconds=0.5)
        replay = TraceArrival(trace)
        for index in range(len(trace.qps)):
            midpoint = (index + 0.5) * trace.bucket_seconds
            assert replay.rate_at(midpoint) == model.rate_at(midpoint)

    def test_synthesis_is_itself_replay_stable(self):
        """Synthesizing from a replayed trace returns the same buckets."""
        model = FlashCrowdArrival(FlashCrowdSpec())
        first = synthesize_trace(model, duration=12.0, bucket_seconds=0.5)
        second = synthesize_trace(
            TraceArrival(first), duration=12.0, bucket_seconds=0.5
        )
        assert first.qps == second.qps

    def test_validation(self):
        with pytest.raises(TenantError):
            synthesize_trace(ConstantArrival(1.0), duration=0.0, bucket_seconds=1.0)


class TestTraceSpecBucketValidation:
    def test_non_finite_bucket_seconds_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="bucket_seconds"):
                TraceSpec(bucket_seconds=bad, qps=(1.0,))

    def test_nan_header_fails_at_load_time(self):
        """A malformed header must fail on load, not mid-simulation."""
        from repro.config.traces import parse_trace_text

        text = '{"bucket_seconds": NaN}\n{"t": 0.0, "qps": 5.0}\n'
        with pytest.raises(ConfigError):
            parse_trace_text(text, "jsonl")


class TestPeakIn:
    def test_constant_and_trace(self):
        assert ConstantArrival(50.0).peak_in(0.0, 10.0) == 50.0
        trace = TraceArrival(TraceSpec(1.0, (100.0, 900.0, 200.0)))
        assert trace.peak_in(0.0, 0.9) == 100.0
        assert trace.peak_in(0.5, 1.5) == 900.0
        assert trace.peak_in(2.0, 2.9) == 200.0
        # Wrapping window: bucket 2 (200) plus cyclic bucket 0 (100).
        assert trace.peak_in(2.0, 3.5) == 200.0
        # Window spanning the whole (cyclic) trace sees the global peak.
        assert trace.peak_in(0.0, 30.0) == 900.0

    def test_diurnal_peak_inside_and_outside_the_window(self):
        model = DiurnalArrival(
            DiurnalSpec(peak_qps=4000.0, trough_qps=1600.0, period=100.0, phase_offset=0.5)
        )
        # Peak at t=50 (phase 0.5 shifts it half a period).
        assert model.peak_in(40.0, 60.0) == 4000.0
        # Trough-side window: maximum at an endpoint, well below the peak.
        assert model.peak_in(90.0, 110.0) == pytest.approx(model.rate_at(90.0))
        assert model.peak_in(90.0, 110.0) < 4000.0

    def test_flash_crowd_narrow_spike_never_missed(self):
        spec = FlashCrowdSpec(
            base_qps=500.0, spike_qps=5000.0, start=1.05, ramp=0.01, hold=0.01, decay=0.01
        )
        model = FlashCrowdArrival(spec)
        # A 30 ms spike inside a 10 s window: sampling at ~78 ms steps would
        # miss it; peak_in finds it analytically.
        assert model.peak_in(1.0, 10.0) == 5000.0
        assert model.peak_in(2.0, 10.0) == 500.0

    def test_bursty_short_burst_never_missed(self):
        spec = BurstySpec(
            base_qps=500.0,
            burst_qps=5000.0,
            mean_normal_seconds=5.0,
            mean_burst_seconds=0.01,
        )
        model = BurstyArrival(spec, horizon=60.0, rng=np.random.default_rng(11))
        boundaries = model._boundaries
        # Find an actual burst segment and ask about a window containing it.
        burst_index = model._states.index(1)
        start = boundaries[burst_index - 1] if burst_index else 0.0
        assert model.peak_in(start - 0.5, boundaries[burst_index] + 0.5) == 5000.0
        # A window strictly inside a normal segment sees only the base rate.
        normal_index = model._states.index(0)
        if normal_index == 0 and boundaries[0] > 0.2:
            assert model.peak_in(0.0, boundaries[0] - 0.1) == 500.0


class TestFlashCrowdSpikeWidth:
    def test_zero_width_spike_rejected(self):
        with pytest.raises(ConfigError, match="non-zero spike"):
            FlashCrowdSpec(start=2.0, ramp=0.0, hold=0.0, decay=0.0)
