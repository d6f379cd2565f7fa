"""Unit and property tests for Algorithm 2 (probabilistic top-k)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ProtocolParams
from repro.core.topk_protocol import ProbabilisticTopKAlgorithm
from repro.core.vectors import (
    is_sorted_desc,
    merge_topk,
    multiset_difference,
)
from repro.database.query import Domain

DOMAIN = Domain(1, 10_000)


def make_algo(
    values,
    k: int,
    p0: float = 1.0,
    d: float = 0.5,
    seed: int = 7,
    insert_once: bool = True,
    delta: float = 1.0,
):
    from repro.core.schedule import ExponentialSchedule

    params = ProtocolParams(
        schedule=ExponentialSchedule(p0=p0, d=d),
        delta=delta,
        insert_once=insert_once,
    )
    return ProbabilisticTopKAlgorithm(
        [float(v) for v in values], k, params, DOMAIN, random.Random(seed)
    )


class TestConstruction:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must"):
            make_algo([1.0], k=0)

    def test_rejects_oversized_local_vector(self):
        with pytest.raises(ValueError, match="local top-2"):
            make_algo([1.0, 2.0, 3.0], k=2)

    def test_local_values_sorted(self):
        algo = make_algo([10.0, 50.0], k=2)
        assert algo.local_values == [50.0, 10.0]


class TestCase1NoContribution:
    def test_passes_unchanged_when_m_zero(self):
        algo = make_algo([5.0, 4.0], k=2)
        incoming = [40.0, 30.0]
        assert algo.compute(incoming, 1) == incoming
        assert algo.randomized_rounds == []
        assert not algo.has_inserted


class TestCase2Insertion:
    def test_p0_zero_always_inserts_real_topk(self):
        algo = make_algo([50.0, 10.0], k=2, p0=0.0)
        assert algo.compute([40.0, 30.0], 1) == [50.0, 40.0]
        assert algo.has_inserted
        assert algo.revealed_round == 1

    def test_insert_once_passes_after_insertion(self):
        algo = make_algo([50.0, 45.0], k=2, p0=0.0)
        algo.compute([40.0, 30.0], 1)
        # Vector regressed (hypothetically); node must pass it on unchanged.
        assert algo.compute([20.0, 10.0], 2) == [20.0, 10.0]

    def test_reinsert_when_insert_once_disabled(self):
        algo = make_algo([50.0, 45.0], k=2, p0=0.0, insert_once=False)
        algo.compute([40.0, 30.0], 1)
        assert algo.compute([20.0, 10.0], 2) == [50.0, 45.0]


class TestCase2Randomization:
    def test_p0_one_randomizes_round_one(self):
        algo = make_algo([500.0, 400.0], k=2, p0=1.0)
        out = algo.compute([100.0, 50.0], 1)
        assert out != [500.0, 400.0]
        assert algo.randomized_rounds == [1]
        assert not algo.has_inserted

    def test_randomized_head_copied_from_incoming(self):
        # m=1: node contributes one value; head must be g_prev[:k-1].
        algo = make_algo([500.0], k=3, p0=1.0)
        incoming = [400.0, 300.0, 200.0]
        out = algo.compute(incoming, 1)
        assert out[:2] == [400.0, 300.0]

    def test_randomized_tail_below_kth_real(self):
        for seed in range(40):
            algo = make_algo([500.0, 450.0], k=2, p0=1.0, seed=seed)
            incoming = [100.0, 50.0]
            out = algo.compute(incoming, 1)
            real = merge_topk(incoming, [500.0, 450.0], 2)
            kth_real = real[-1]
            tail = out  # m = k = 2 here: whole vector is noise
            assert all(v < kth_real for v in tail)

    def test_m_equals_k_replaces_whole_vector(self):
        algo = make_algo([500.0, 450.0], k=2, p0=1.0)
        incoming = [100.0, 50.0]
        out = algo.compute(incoming, 1)
        # Noise range is [min(450-delta, 100), 450): always >= domain low.
        assert all(DOMAIN.low <= v < 450.0 for v in out)
        assert is_sorted_desc(out)

    def test_degenerate_range_emits_domain_floor(self):
        # Incoming is all domain-low and the node's contribution leaves the
        # kth real value at the floor: noise must be the floor itself.
        algo = make_algo([500.0, 400.0], k=3, p0=1.0)
        incoming = [1.0, 1.0, 1.0]
        out = algo.compute(incoming, 1)
        assert out == [1.0, 1.0, 1.0]

    def test_noise_is_integral_on_integral_domain(self):
        algo = make_algo([500.0, 450.0], k=2, p0=1.0, seed=11)
        out = algo.compute([100.0, 50.0], 1)
        assert all(v == int(v) for v in out)


class TestK1Reduction:
    def test_matches_max_algorithm_semantics(self):
        # With k=1 Algorithm 2 must behave like Algorithm 1: pass when
        # g >= v, otherwise randomize in [*, v) or reveal v.
        for seed in range(50):
            algo = make_algo([100.0], k=1, p0=0.5, seed=seed)
            out = algo.compute([10.0], 1)[0]
            assert (10.0 <= out < 100.0) or out == 100.0
        algo = make_algo([100.0], k=1, p0=0.5)
        assert algo.compute([200.0], 1) == [200.0]


vectors = st.lists(
    st.integers(min_value=1, max_value=10_000).map(float), min_size=1, max_size=6
)


@given(
    local=vectors,
    incoming_raw=st.lists(
        st.integers(min_value=1, max_value=10_000).map(float), min_size=1, max_size=6
    ),
    p0=st.sampled_from([0.0, 0.5, 1.0]),
    r=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=250, deadline=None)
def test_property_algorithm2_invariants(local, incoming_raw, p0, r, seed):
    """Executable invariants of Algorithm 2's output."""
    k = len(incoming_raw)
    local = local[:k]
    incoming = sorted(incoming_raw, reverse=True)
    algo = make_algo(local, k=k, p0=p0, seed=seed)
    out = algo.compute(list(incoming), r)

    real = merge_topk(incoming, local, k)
    # Shape invariant: always a valid global vector.
    assert len(out) == k
    assert is_sorted_desc(out)
    # Output is one of: pass-through, real top-k, or head+noise.
    if out != incoming and out != real:
        contributed = multiset_difference(real, incoming)
        m = len(contributed)
        assert m > 0
        assert out[: k - m] == incoming[: k - m]
        kth_real = real[-1]
        # Noise never reaches the kth real value, so it is displaceable.
        assert all(v < kth_real or v == DOMAIN.low for v in out[k - m :])
    # Correctness invariant: no value above the true merged top-k ever
    # appears (nothing is fabricated above real data).
    assert out[0] <= real[0]
    # Own values appear only via a genuine insertion.
    if Counter(out) - Counter(incoming):
        inserted_own = multiset_difference(out, incoming)
        if out == real:
            assert not Counter(multiset_difference(real, incoming)) - Counter(local)
