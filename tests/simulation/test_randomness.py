"""Tests for the named random-stream factory."""

import numpy as np
import pytest

from repro.simulation.randomness import RandomStreams, stable_seed


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("arrivals").random(5)
        b = RandomStreams(7).stream("arrivals").random(5)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = streams.stream("arrivals").random(5)
        b = streams.stream("service").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert not np.allclose(a, b)

    def test_stream_is_cached(self):
        streams = RandomStreams(3)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_children_are_deterministic(self):
        a = RandomStreams(9).spawn("machine-1").stream("disk").random(3)
        b = RandomStreams(9).spawn("machine-1").stream("disk").random(3)
        assert np.allclose(a, b)

    def test_spawn_children_are_independent(self):
        parent = RandomStreams(9)
        a = parent.spawn("machine-1").stream("disk").random(3)
        b = parent.spawn("machine-2").stream("disk").random(3)
        assert not np.allclose(a, b)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_seed_property(self):
        assert RandomStreams(11).seed == 11


class TestStableSeed:
    def test_pinned_value(self):
        """Fleet shard draws, and so the fleet goldens, depend on this value."""
        assert stable_seed("fleet-shard", 7, "g", "stage-1", 0) == 9259421251814126593
