"""Unit tests for repro.privacy.adversary (coalitions, range exposure)."""

import pytest

from repro.core.driver import NAIVE, PROBABILISTIC, RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.privacy.adversary import (
    AdversaryError,
    coalition_lop,
    coalition_round_lop,
    naive_range_exposure,
    victim_is_sandwiched,
)
from repro.privacy.lop import average_lop

from ..conftest import make_vectors

QUERY = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))


def run(values, protocol=PROBABILISTIC, rounds=8, seed=0, remap=False):
    params = ProtocolParams.paper_defaults(rounds=rounds, remap_each_round=remap)
    config = RunConfig(protocol=protocol, params=params, seed=seed)
    return run_protocol_on_vectors(make_vectors(values), QUERY, config)


class TestCoalitionLop:
    def test_unknown_victim_rejected(self):
        result = run([1, 2, 3])
        with pytest.raises(AdversaryError, match="unknown victim"):
            coalition_round_lop(result, "ghost", 1)

    def test_pass_through_rounds_uninformative(self):
        # A node that forwards unchanged vectors leaks nothing to a coalition.
        result = run([1, 2, 9000])
        low_holder = next(
            n for n, vs in result.local_vectors.items() if vs == [1.0]
        )
        assert coalition_lop(result, low_holder) == 0.0

    def test_max_holder_attributable_under_collusion(self):
        # Section 4.3: the max-holder is provably exposed to colluding
        # neighbours once it reveals v_max (minus the 1/n prior).
        exposures = []
        for seed in range(30):
            result = run([10, 20, 9000, 30], seed=seed)
            holder = next(
                n for n, vs in result.local_vectors.items() if vs == [9000.0]
            )
            exposures.append(coalition_lop(result, holder))
        n = 4
        assert max(exposures) == pytest.approx(1.0 - 1.0 / n)

    def test_coalition_sees_at_least_single_adversary(self):
        # Pooling views can only increase knowledge: coalition LoP dominates
        # the single-successor LoP on average.
        single, coalition = 0.0, 0.0
        for seed in range(20):
            result = run([100, 200, 9000, 50, 375], seed=seed)
            single += average_lop(result)
            nodes = result.ring_order
            coalition += sum(coalition_lop(result, n) for n in nodes) / len(nodes)
        assert coalition >= single

    def test_average_coalition_lop_bounds(self):
        result = run([1, 2, 3, 4])
        assert all(0.0 <= coalition_lop(result, n) <= 1.0 for n in result.ring_order)


class TestSandwiching:
    def test_static_ring_sandwich_is_constant(self):
        result = run([1, 2, 3, 4], rounds=3)
        ring = result.ring_order
        victim = ring[1]
        colluders = (ring[0], ring[2])
        for r in (1, 2, 3):
            assert victim_is_sandwiched(result, victim, colluders, r)

    def test_remapping_breaks_sandwich_sometimes(self):
        hits, total = 0, 0
        for seed in range(15):
            result = run(list(range(1, 9)), rounds=6, seed=seed, remap=True)
            ring = result.ring_history[1]
            victim = ring[1]
            colluders = (ring[0], ring[2])
            for r in range(1, 7):
                total += 1
                hits += victim_is_sandwiched(result, victim, colluders, r)
        # Round 1 always sandwiched by construction; later rounds mostly not.
        assert hits < total


class TestNaiveRangeExposure:
    def test_naive_leaks_a_range(self):
        result = run([100, 200, 9000], protocol=NAIVE)
        ring = result.ring_order
        claim = naive_range_exposure(result, ring[0])
        assert claim is not None
        # The successor can prove v <= the forwarded running max.
        outputs = result.event_log.outputs_of(ring[0])
        assert claim.high == max(outputs[min(outputs)])
        assert claim.holds_for(result.local_vectors[ring[0]])

    def test_probabilistic_protocol_proves_no_range(self):
        result = run([100, 200, 9000])
        assert naive_range_exposure(result, result.ring_order[0]) is None
