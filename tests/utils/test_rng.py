"""Tests for deterministic RNG management."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    cumulative_distribution,
    derive_rng,
    draw_index,
    make_rng,
    split_rng,
)


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, size=5)
        b = make_rng(42).integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_passthrough_generator(self):
        generator = np.random.default_rng(7)
        assert make_rng(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveRng:
    def test_same_tag_same_parent_state(self):
        a = derive_rng(make_rng(1), "mutation").integers(0, 10**6)
        b = derive_rng(make_rng(1), "mutation").integers(0, 10**6)
        assert a == b

    def test_different_tags_differ(self):
        parent = make_rng(1)
        a = derive_rng(parent, "a")
        b = derive_rng(parent, "b")
        assert list(a.integers(0, 10**6, 8)) != list(b.integers(0, 10**6, 8))


class TestSplitRng:
    def test_count(self):
        children = split_rng(make_rng(3), 4)
        assert len(children) == 4

    def test_children_independent_streams(self):
        children = split_rng(make_rng(3), 2)
        a = list(children[0].integers(0, 10**6, 8))
        b = list(children[1].integers(0, 10**6, 8))
        assert a != b

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            split_rng(make_rng(0), -1)

    def test_deterministic_given_parent_seed(self):
        first = [g.integers(0, 10**6) for g in split_rng(make_rng(9), 3)]
        second = [g.integers(0, 10**6) for g in split_rng(make_rng(9), 3)]
        assert first == second


class TestDrawIndex:
    """``draw_index`` over a precomputed CDF replays ``Generator.choice``."""

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 10.0), min_size=1, max_size=16)
           .filter(lambda weights: sum(weights) > 0))
    @settings(max_examples=200, deadline=None)
    def test_same_draws_as_choice_with_p(self, seed, weights):
        probabilities = np.array(weights) / sum(weights)
        cdf = cumulative_distribution(probabilities)
        reference, fast = make_rng(seed), make_rng(seed)
        for _ in range(50):
            expected = int(reference.choice(len(weights), p=probabilities))
            assert draw_index(fast, cdf) == expected
        # Same stream afterwards: both consumed one draw per pick.
        assert fast.random() == reference.random()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_uniform_pick_matches_choice_of_sequence(self, seed, size):
        options = tuple(f"m{index}" for index in range(size))
        reference, fast = make_rng(seed), make_rng(seed)
        for _ in range(50):
            assert options[fast.integers(0, len(options))] == str(reference.choice(options))
        assert fast.random() == reference.random()
