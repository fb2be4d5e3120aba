"""Tests for egress throttling and the buffer-core profiler."""

import pytest

from repro.config.schema import IndexServeSpec, NetworkThrottleSpec
from repro.core.network_throttle import NetworkThrottle
from repro.errors import IsolationError
from repro.telemetry.profiling import BufferCoreProfiler
from repro.units import MB


class TestNetworkThrottle:
    def test_start_applies_rate_limit(self, kernel):
        throttle = NetworkThrottle(kernel, NetworkThrottleSpec(secondary_bandwidth_limit=10 * MB))
        throttle.start()
        assert throttle.active
        # The NIC now paces a stream of large low-priority transfers.
        finishes = []
        for _ in range(3):
            kernel.machine.nic.send("bulk", 5 * MB, priority=kernel.machine.nic.LOW,
                                    callback=lambda: finishes.append(kernel.now))
        kernel.engine.run()
        assert finishes[-1] > 0.8

    def test_disabled_spec_keeps_high_priority(self, kernel):
        throttle = NetworkThrottle(kernel, NetworkThrottleSpec(enabled=False))
        throttle.start()
        assert not throttle.active
        # The low class stays uncapped, so secondary egress is not held back.
        assert kernel.machine.nic._low_rate_limit is None

    def test_stop_removes_limit(self, kernel):
        throttle = NetworkThrottle(kernel, NetworkThrottleSpec(secondary_bandwidth_limit=1 * MB))
        throttle.start()
        throttle.stop()
        finishes = []
        for _ in range(3):
            kernel.machine.nic.send("bulk", 5 * MB, priority=kernel.machine.nic.LOW,
                                    callback=lambda: finishes.append(kernel.now))
        kernel.engine.run()
        assert finishes[-1] < 0.1


class TestBufferCoreProfiler:
    def test_recommendation_in_sane_range(self):
        profiler = BufferCoreProfiler(IndexServeSpec(), seed=3)
        profile = profiler.profile(peak_qps=4000, duration=2.0)
        # The paper observes bursts up to 15 ready threads and settles on 8
        # buffer cores; the profiler should land in the same neighbourhood.
        assert 2 <= profile.recommended_buffer_cores <= 16
        assert profile.max_burst >= profile.recommended_buffer_cores

    def test_profile_statistics_consistent(self):
        profile = BufferCoreProfiler(IndexServeSpec(), seed=3).profile(peak_qps=3000, duration=1.0)
        assert profile.p50_burst <= profile.p99_burst <= profile.p999_burst <= profile.max_burst
        assert sum(profile.histogram.values()) > 0

    def test_deterministic_for_seed(self):
        a = BufferCoreProfiler(IndexServeSpec(), seed=5).profile(peak_qps=2000, duration=1.0)
        b = BufferCoreProfiler(IndexServeSpec(), seed=5).profile(peak_qps=2000, duration=1.0)
        assert a.recommended_buffer_cores == b.recommended_buffer_cores
        assert a.max_burst == b.max_burst

    def test_higher_load_needs_no_smaller_buffer(self):
        low = BufferCoreProfiler(IndexServeSpec(), seed=5).profile(peak_qps=500, duration=2.0)
        high = BufferCoreProfiler(IndexServeSpec(), seed=5).profile(peak_qps=8000, duration=2.0)
        assert high.recommended_buffer_cores >= low.recommended_buffer_cores

    def test_invalid_parameters_rejected(self):
        profiler = BufferCoreProfiler(IndexServeSpec(), seed=1)
        with pytest.raises(IsolationError):
            profiler.profile(peak_qps=0)
        with pytest.raises(IsolationError):
            BufferCoreProfiler(IndexServeSpec(), window=0)
