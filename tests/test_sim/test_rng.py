"""Tests for named deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams, _name_key


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RngStreams(seed=42).get("x").random(10)
        b = RngStreams(seed=42).get("x").random(10)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = RngStreams(seed=1).get("x").random(10)
        b = RngStreams(seed=2).get("x").random(10)
        assert not np.array_equal(a, b)

    def test_different_names_independent(self):
        s = RngStreams(seed=42)
        a = s.get("alpha").random(10)
        b = s.get("beta").random(10)
        assert not np.array_equal(a, b)

    def test_stream_identity_cached(self):
        s = RngStreams(seed=0)
        assert s.get("a") is s.get("a")

    def test_draw_order_does_not_couple_streams(self):
        # Consuming stream "a" must not perturb stream "b".
        s1 = RngStreams(seed=9)
        s1.get("a").random(100)
        b1 = s1.get("b").random(5)

        s2 = RngStreams(seed=9)
        b2 = s2.get("b").random(5)
        assert np.array_equal(b1, b2)

    def test_name_key_stable(self):
        # Guard against platform/process-salted hashing.
        assert _name_key("arrivals") == _name_key("arrivals")
        assert _name_key("arrivals") != _name_key("arrivals2")


class TestSpawn:
    def test_spawn_is_deterministic(self):
        a = RngStreams(seed=5).spawn("rep1").get("x").random(5)
        b = RngStreams(seed=5).spawn("rep1").get("x").random(5)
        assert np.array_equal(a, b)

    def test_spawn_children_differ(self):
        root = RngStreams(seed=5)
        a = root.spawn("rep1").get("x").random(5)
        b = root.spawn("rep2").get("x").random(5)
        assert not np.array_equal(a, b)

    def test_spawn_differs_from_parent(self):
        root = RngStreams(seed=5)
        child = root.spawn("rep1")
        assert not np.array_equal(root.get("x").random(5), child.get("x").random(5))


class TestMisc:
    def test_stream_names_sorted(self):
        s = RngStreams(seed=0)
        s.get("zeta")
        s.get("alpha")
        assert s.stream_names() == ["alpha", "zeta"]

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams(seed="42")  # type: ignore[arg-type]

    def test_numpy_int_seed_accepted(self):
        s = RngStreams(seed=np.int64(7))
        assert s.seed == 7
