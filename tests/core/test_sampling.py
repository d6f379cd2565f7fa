"""Unit and property tests for repro.core.sampling."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sampling
from repro.core.sampling import (
    MAX_HARVEST_WORDS,
    SamplingError,
    WordPool,
    mt19937_words,
    prefix_cache_clear,
    random_value_in,
)
from repro.experiments.figures.common import TrialSetup, params_with
from repro.experiments.runner import run_trials

#: Streams per seeding block (``sampling._MT_BLOCK``).
BLOCK = sampling._MT_BLOCK
#: Both key lengths of ``init_by_array``: seeds below 2**32 feed it one
#: 32-bit word, seeds from 2**32 up feed it two.
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


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


def _reference(seed: int, words: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(words)]


@pytest.fixture
def cold_cache():
    """Every harvest below starts from (and leaves) no kept harvest."""
    prefix_cache_clear()
    yield
    prefix_cache_clear()


@pytest.fixture
def harvests(monkeypatch):
    """The stream count of every ``_mt_words_chunk`` block, in call order."""
    sizes: list[int] = []
    real = sampling._mt_words_chunk

    def counting(seeds, words, mt):
        sizes.append(seeds.shape[0])
        return real(seeds, words, mt)

    monkeypatch.setattr(sampling, "_mt_words_chunk", counting)
    return sizes


@pytest.mark.usefixtures("cold_cache")
class TestMt19937Words:
    """``mt19937_words`` row ``s`` is ``random.Random(seeds[s])``'s raw
    ``getrandbits(32)`` sequence, word for word, on either side of every
    block boundary."""

    def test_the_block_is_four_mib_of_state(self):
        assert BLOCK == (4 << 20) // (624 * 4) == 1680

    @pytest.mark.parametrize("words", [1, MAX_HARVEST_WORDS])
    @pytest.mark.parametrize(
        "count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
    )
    def test_rows_replay_random_word_by_word(self, count, words, harvests):
        rng = random.Random(count)
        seeds = (EDGE_SEEDS + [rng.getrandbits(64) for _ in range(count)])[:count]
        got = mt19937_words(seeds, words)
        assert got.shape == (count, words)
        assert got.dtype == np.uint32
        for row, seed in zip(got.tolist(), seeds):
            assert row == _reference(seed, words), seed
        assert harvests == [
            min(BLOCK, count - start) for start in range(0, count, BLOCK)
        ]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds(self, seed):
        assert mt19937_words([seed], MAX_HARVEST_WORDS)[0].tolist() == _reference(
            seed, MAX_HARVEST_WORDS
        )

    def test_duplicate_seeds_in_one_call(self):
        seeds = [7, 2**64 - 1, 7, 2**32, 2**64 - 1, 7]
        got = mt19937_words(seeds, 16)
        for row, seed in zip(got.tolist(), seeds):
            assert row == _reference(seed, 16)

    def test_duplicates_across_blocks(self):
        seeds = [11, 2**40 + 3] * (BLOCK + 2)
        want = [_reference(11, 4), _reference(2**40 + 3, 4)] * (BLOCK + 2)
        assert mt19937_words(seeds, 4).tolist() == want

    @pytest.mark.parametrize("words", [0, MAX_HARVEST_WORDS + 1])
    def test_words_out_of_range_rejected(self, words):
        with pytest.raises(ValueError, match="words must be"):
            mt19937_words([1], words)


@pytest.mark.usefixtures("cold_cache")
class TestKeptHarvest:
    """The previous call's harvest: what it serves, and what replaces it."""

    def test_a_hit_equals_the_reference_and_does_not_reharvest(self, harvests):
        mt19937_words([3, 4, 5], 20)
        again = mt19937_words([5, 3, 4], 20)
        assert harvests == [3]
        for row, seed in zip(again.tolist(), [5, 3, 4]):
            assert row == _reference(seed, 20)
        shorter = mt19937_words([4, 4], 7)  # duplicates, a shorter prefix
        assert harvests == [3]
        assert shorter.tolist() == [_reference(4, 7)] * 2

    def test_a_longer_request_reharvests(self, harvests):
        mt19937_words([8], 5)
        longer = mt19937_words([8], 30)
        assert harvests == [1, 1]
        assert longer[0].tolist() == _reference(8, 30)
        mt19937_words([8], 12)  # served from the longer harvest
        assert harvests == [1, 1]

    def test_an_overlapping_call_seeds_only_its_new_seeds(self, harvests):
        mt19937_words([3, 4, 2**64 - 1], 8)
        got = mt19937_words([4, 9, 2**64 - 1, 10, 2**32], 8)
        assert harvests == [3, 3]
        for row, seed in zip(got.tolist(), [4, 9, 2**64 - 1, 10, 2**32]):
            assert row == _reference(seed, 8)

    def test_only_the_last_call_is_kept(self, harvests):
        mt19937_words([1, 2], 4)
        mt19937_words([3], 4)
        mt19937_words([1, 3], 4)  # 1 was not in the last call; 3 was
        assert harvests == [2, 1, 1]

    def test_the_returned_matrix_is_read_only(self):
        got = mt19937_words([21, 22], 9)
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 0
        hit = mt19937_words([22], 9)
        assert not hit.flags.writeable
        assert hit[0].tolist() == _reference(22, 9)

    def test_clearing_drops_the_harvest(self, harvests):
        mt19937_words([5, 6], 3)
        prefix_cache_clear()
        assert sampling._kept is None
        mt19937_words([5, 6], 3)
        assert harvests == [2, 2]

    def test_a_fig9_shaped_sweep_seeds_each_node_stream_once(self, harvests):
        """Fig. 9 runs one setup's trials once per (p0, d) pair: 16 calls
        asking for the same node streams, each seeded by the first only."""
        trials, n = 20, 10
        for p0 in (0.25, 0.5, 0.75, 1.0):
            for d in (0.125, 0.25, 0.5, 0.75):
                setup = TrialSetup(
                    n=n, k=1, params=params_with(p0, d, rounds=12),
                    trials=trials, seed=0,
                )
                run_trials(setup, jobs=1)
        assert sum(harvests) == trials * n


def test_a_large_harvest_stays_in_a_bounded_working_set(cold_cache):
    """Fig. 10's widest probabilistic point harvests 6,400 fresh streams of
    54 words in one call.  Seeded a 1,680-stream block at a time the call
    traces ~8.5 MiB at its peak; seeding all of them in one ``(624, 6400)``
    state traced ~21 MiB."""
    rng = random.Random(64)
    seeds = [rng.getrandbits(64) for _ in range(6400)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mt19937_words(seeds, 54)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"{peak / 2**20:.1f} MiB"
