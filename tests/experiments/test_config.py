"""Unit tests for repro.experiments.config."""

import pytest

from repro.experiments.config import PAPER_TRIALS, TrialSetup


class TestValidation:
    def test_defaults(self):
        setup = TrialSetup(n=4)
        assert setup.trials == PAPER_TRIALS
        assert setup.k == 1
        assert setup.distribution == "uniform"

    def test_minimum_nodes(self):
        with pytest.raises(ValueError, match="n >= 3"):
            TrialSetup(n=2)

    def test_k_positive(self):
        with pytest.raises(ValueError, match="k must"):
            TrialSetup(n=4, k=0)

    def test_trials_positive(self):
        with pytest.raises(ValueError, match="trials"):
            TrialSetup(n=4, trials=0)

    def test_values_per_node_positive(self):
        with pytest.raises(ValueError, match="values_per_node"):
            TrialSetup(n=4, values_per_node=0)

    def test_protocol_validated(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            TrialSetup(n=4, protocol="magic")

    def test_distribution_validated(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            TrialSetup(n=4, distribution="cauchy")


class TestSeeding:
    def test_trial_seeds_distinct(self):
        setup = TrialSetup(n=4, seed=7)
        seeds = {setup.protocol_seed(t) for t in range(100)}
        assert len(seeds) == 100

    def test_trial_seed_stable(self):
        assert TrialSetup(n=4, seed=7).protocol_seed(3) == TrialSetup(
            n=4, seed=7
        ).protocol_seed(3)

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="trial_index"):
            TrialSetup(n=4).protocol_seed(-1)

    def test_paired_datasets_across_protocols(self):
        # Same seed + trial -> same data regardless of protocol (paired
        # comparison property used by Figures 10/12).
        a = TrialSetup(n=4, protocol="naive", seed=9)
        b = TrialSetup(n=4, protocol="probabilistic", seed=9)
        assert a.data_rng(5).random() == b.data_rng(5).random()

    def test_data_and_protocol_seeds_differ(self):
        setup = TrialSetup(n=4, seed=9)
        assert setup.protocol_seed(0) != setup._derived_seed(0, "data")

    def test_streams_injective_over_swept_ranges(self):
        # Regression for the 31-bit arithmetic derivation: across every
        # (seed, trial, stream) cell the harness sweeps, no two cells may
        # share a seed — a collision silently correlates "independent"
        # trials.
        seen: dict[int, tuple] = {}
        for seed in range(8):
            setup = TrialSetup(n=4, seed=seed)
            for trial in range(100):
                for stream in ("data", "protocol"):
                    value = setup._derived_seed(trial, stream)
                    key = (seed, trial, stream)
                    assert value not in seen, (key, seen.get(value))
                    seen[value] = key

    def test_old_derivation_collision_fixed(self):
        # Under the old linear derivation (seed * 1_000_003 + trial * 7_919)
        # these two cells collided exactly; the hash derivation keeps them
        # apart.
        a = TrialSetup(n=4, seed=7_919).protocol_seed(0)
        b = TrialSetup(n=4, seed=0).protocol_seed(1_000_003)
        assert a != b

    def test_seeds_fit_in_64_bits(self):
        setup = TrialSetup(n=4, seed=123)
        for trial in (0, 1, 99):
            assert 0 <= setup.protocol_seed(trial) < 2**64
            assert 0 <= setup.protocol_seed(trial) < 2**64
