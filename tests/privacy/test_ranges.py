"""Tests for range-exposure quantification."""

import pytest

from repro.core.driver import NAIVE, PROBABILISTIC, RunConfig, run_protocol_on_vectors
from repro.database.query import Domain, TopKQuery
from repro.privacy.ranges import (
    RangeExposureError,
    node_range_lop,
    range_claim_lop,
)

from ..conftest import make_vectors

QUERY = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))


def run(values, protocol=NAIVE, seed=0):
    return run_protocol_on_vectors(
        make_vectors(values), QUERY, RunConfig(protocol=protocol, seed=seed)
    )


class TestRangeClaimLop:
    def test_bound_at_vmax_is_no_breach(self):
        result = run([100, 200, 9000])
        assert range_claim_lop(9000.0, result) == 0.0
        assert range_claim_lop(9999.0, result) == 0.0

    def test_tighter_bounds_are_worse(self):
        # "the severity ... decreases as a increases" — monotone check.
        result = run([100, 200, 9000])
        severities = [range_claim_lop(b, result) for b in (100, 1000, 5000, 8999)]
        assert severities == sorted(severities, reverse=True)
        assert severities[0] > 0.9  # a tight bound is a near-total breach

    def test_out_of_domain_bound_rejected(self):
        result = run([1, 2, 3])
        with pytest.raises(RangeExposureError, match="outside"):
            range_claim_lop(99_999.0, result)

    def test_continuous_domain_rejected(self):
        query = TopKQuery(
            table="t", attribute="a", k=1, domain=Domain(0.0, 1.0, integral=False)
        )
        result = run_protocol_on_vectors(
            {"a": [0.5], "b": [0.7], "c": [0.2]}, query, RunConfig(seed=1)
        )
        with pytest.raises(RangeExposureError, match="integral"):
            range_claim_lop(0.5, result)


class TestNodeRangeLop:
    def test_naive_early_nodes_suffer_range_exposure(self):
        # The starting node forwards its own (small) value: a tight provable
        # range unless it happens to hold the maximum.
        result = run([100, 200, 9000, 50])
        starter = result.starter
        if result.local_vectors[starter] != [9000.0]:
            assert node_range_lop(result, starter) > 0.9

    def test_probabilistic_protocol_has_zero_range_exposure(self):
        # Section 3.3's first design principle, as a measured quantity.
        result = run([100, 200, 9000, 50], protocol=PROBABILISTIC)
        for node in result.ring_order:
            assert node_range_lop(result, node) == 0.0

    def test_average_range_lop_between_bounds(self):
        result = run([100, 200, 9000, 50])
        for node in result.ring_order:
            assert 0.0 <= node_range_lop(result, node) <= 1.0

    def test_naive_average_exceeds_probabilistic(self):
        values = [100, 200, 9000, 50, 777]
        naive_total = prob_total = 0.0
        for seed in range(10):
            for protocol in (NAIVE, PROBABILISTIC):
                result = run(values, protocol, seed)
                total = sum(node_range_lop(result, n) for n in result.ring_order)
                if protocol == NAIVE:
                    naive_total += total
                else:
                    prob_total += total
        assert prob_total == 0.0
        assert naive_total > 0.0
