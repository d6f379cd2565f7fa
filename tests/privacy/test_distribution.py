"""Tests for the Bayesian distribution-exposure model."""

import numpy as np
import pytest

from repro.core.driver import RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.privacy.adversary import AdversaryError
from repro.privacy.distribution import (
    _hop_likelihood,
    coalition_posterior,
    entropy_reduction_by_round,
)

from ..conftest import make_vectors

DOMAIN = Domain(1, 1000)  # smaller domain keeps the posterior arrays light
QUERY = TopKQuery(table="t", attribute="a", k=1, domain=DOMAIN)


def run(values, rounds=8, seed=0, p0=1.0, d=0.5):
    params = ProtocolParams.with_randomization(p0, d, rounds=rounds)
    return run_protocol_on_vectors(
        make_vectors(values), QUERY, RunConfig(params=params, seed=seed)
    )


class TestHopLikelihood:
    def setup_method(self):
        self.values = np.arange(1, 1001, dtype=float)

    def test_pass_through_supports_small_values(self):
        likelihood = _hop_likelihood(self.values, g_in=500.0, g_out=500.0, p_r=0.5)
        assert likelihood[self.values <= 500].min() == 1.0
        # Larger values are possible only through coincidental noise.
        assert 0 < likelihood[self.values == 600][0] < 1.0

    def test_increase_rules_out_small_values(self):
        likelihood = _hop_likelihood(self.values, g_in=100.0, g_out=400.0, p_r=0.5)
        assert likelihood[self.values < 400].max() == 0.0
        assert likelihood[self.values == 400][0] == pytest.approx(0.5)
        assert likelihood[self.values == 500][0] == pytest.approx(0.5 / 400)

    def test_p_r_zero_makes_increase_a_proof(self):
        likelihood = _hop_likelihood(self.values, g_in=100.0, g_out=400.0, p_r=0.0)
        assert likelihood[self.values == 400][0] == 1.0
        assert likelihood[self.values != 400].max() == 0.0

    def test_non_monotone_hop_rejected(self):
        with pytest.raises(AdversaryError, match="non-monotone"):
            _hop_likelihood(self.values, g_in=400.0, g_out=100.0, p_r=0.5)


class TestCoalitionPosterior:
    def test_posterior_is_a_distribution(self):
        result = run([100, 700, 350, 220])
        for victim in result.ring_order:
            report = coalition_posterior(result, victim)
            assert report.posterior.sum() == pytest.approx(1.0)
            assert report.posterior.min() >= 0.0

    def test_posterior_never_excludes_truth(self):
        # The true value must always keep non-zero posterior mass: the model
        # may sharpen around it but can never contradict reality.
        for seed in range(10):
            result = run([100, 700, 350, 220], seed=seed)
            for victim in result.ring_order:
                report = coalition_posterior(result, victim)
                assert report.true_value_probability > 0.0

    def test_pass_only_nodes_stay_near_prior(self):
        # A node that only ever passed tokens on leaks bounded information:
        # its posterior keeps most of the prior entropy.
        result = run([5, 990, 700, 800], seed=3)
        low_holder = next(
            n for n, vs in result.local_vectors.items() if vs == [5.0]
        )
        report = coalition_posterior(result, low_holder)
        assert report.entropy_reduction_bits < 2.0

    def test_revealing_max_holder_collapses_posterior(self):
        # Section 4.3: the max holder is provably exposed to colluding
        # neighbours once it reveals.
        collapsed = 0
        for seed in range(10):
            result = run([100, 700, 350, 220], seed=seed)
            holder = next(
                n for n, vs in result.local_vectors.items() if vs == [700.0]
            )
            report = coalition_posterior(result, holder)
            if report.map_value == 700.0 and report.map_probability > 0.9:
                collapsed += 1
        assert collapsed >= 8  # reveal probability is ~1 over 8 rounds

    def test_k_must_be_one(self):
        query = TopKQuery(table="t", attribute="a", k=2, domain=DOMAIN)
        result = run_protocol_on_vectors(
            {"a": [1.0, 2.0], "b": [3.0], "c": [4.0]}, query, RunConfig(seed=1)
        )
        with pytest.raises(AdversaryError, match="k=1"):
            coalition_posterior(result, "a")

    def test_unknown_victim(self):
        result = run([1, 2, 3])
        with pytest.raises(AdversaryError, match="unknown victim"):
            coalition_posterior(result, "ghost")


class TestAggregationCurve:
    def test_entropy_reduction_monotone_nondecreasing(self):
        result = run([100, 700, 350, 220], seed=5)
        for victim in result.ring_order:
            curve = entropy_reduction_by_round(result, victim)
            gains = [g for _, g in curve]
            assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_multi_round_aggregation_gains_information(self):
        # The Section 7 concern is real: across victims and trials, the
        # full-run posterior knows (weakly) more than the round-1 posterior.
        total_first, total_last = 0.0, 0.0
        for seed in range(6):
            result = run([100, 700, 350, 220], seed=seed)
            for victim in result.ring_order:
                curve = entropy_reduction_by_round(result, victim)
                total_first += curve[0][1]
                total_last += curve[-1][1]
        assert total_last >= total_first
        assert total_last > 0.0
