"""Tests for the buffer-core profiler."""

import pytest

from repro.config.schema import IndexServeSpec
from repro.errors import IsolationError
from repro.telemetry.profiling import BufferCoreProfiler


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
