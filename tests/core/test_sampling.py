"""Unit and property tests for repro.core.sampling."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import SamplingError, WordPool, random_value_in


class TestIntegral:
    def test_half_open_range(self):
        rng = random.Random(1)
        draws = {random_value_in(rng, 10, 13, integral=True) for _ in range(300)}
        assert draws == {10.0, 11.0, 12.0}

    def test_single_integer_range(self):
        rng = random.Random(1)
        assert random_value_in(rng, 5, 6, integral=True) == 5.0

    def test_values_are_whole(self):
        rng = random.Random(2)
        for _ in range(100):
            value = random_value_in(rng, 1, 100, integral=True)
            assert value == int(value)

    def test_empty_range_rejected(self):
        with pytest.raises(SamplingError, match="empty"):
            random_value_in(random.Random(1), 5, 5, integral=True)

    def test_no_integer_in_range_rejected(self):
        with pytest.raises(SamplingError, match="no integer"):
            random_value_in(random.Random(1), 5.5, 5.9, integral=True)

    @given(
        low=st.integers(min_value=0, max_value=1000),
        width=st.integers(min_value=1, max_value=1000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_in_half_open_range(self, low: int, width: int, seed: int):
        value = random_value_in(random.Random(seed), low, low + width, integral=True)
        assert low <= value < low + width


class TestContinuous:
    def test_in_range(self):
        rng = random.Random(3)
        for _ in range(100):
            value = random_value_in(rng, 1.5, 2.5, integral=False)
            assert 1.5 <= value < 2.5

    def test_inverted_range_rejected(self):
        with pytest.raises(SamplingError, match="empty"):
            random_value_in(random.Random(1), 2.0, 1.0, integral=False)

    @given(
        low=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        width=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_in_half_open_range(self, low: float, width: float, seed: int):
        value = random_value_in(random.Random(seed), low, low + width, integral=False)
        assert low <= value < low + width


class TestWordPoolRandint:
    """``WordPool.randint`` (and the ``_split`` it serves streams through):
    the batch kernel's exact fallback for a row whose rejection sampling
    outruns its prefetched block."""

    def test_replays_random_randint_through_the_harvest_and_past_it(self):
        seeds = [3, 17, 2**40 + 5, 99]
        pool = WordPool(seeds, words=8)  # small: every stream overflows
        rngs = [random.Random(seed) for seed in seeds]
        who = np.arange(len(seeds))
        ranges = [(1, 10_000), (0, 2**31), (5, 6), (1, 3), (-50, 50)] * 4
        for low, high in ranges:
            got = pool.randint(
                who,
                np.full(len(seeds), low, dtype=np.int64),
                np.full(len(seeds), high, dtype=np.int64),
            )
            assert got.tolist() == [rng.randint(low, high) for rng in rngs]
        assert pool._demoted.all()

    def test_a_subset_of_streams_keeps_the_others_in_step(self):
        seeds = [11, 12, 13]
        pool = WordPool(seeds, words=64)
        rngs = [random.Random(seed) for seed in seeds]
        for who in ([0, 2], [1], [0, 1, 2], [2]):
            streams = np.array(who)
            got = pool.randint(
                streams,
                np.full(len(who), 1, dtype=np.int64),
                np.full(len(who), 1000, dtype=np.int64),
            )
            assert got.tolist() == [rngs[s].randint(1, 1000) for s in who]
