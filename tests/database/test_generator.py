"""Unit tests for repro.database.generator."""

import random
from collections import Counter

import pytest

from repro.database.generator import DataGenerator
from repro.database.query import Domain


class TestConstruction:
    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            DataGenerator(distribution="pareto")

    def test_continuous_domain_rejected(self):
        with pytest.raises(ValueError, match="integer domains"):
            DataGenerator(domain=Domain(0.0, 1.0, integral=False))

    def test_zipf_alpha_must_exceed_one(self):
        with pytest.raises(ValueError, match="zipf_alpha"):
            DataGenerator(zipf_alpha=1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DataGenerator(rng=random.Random(1)).values(-1)


class TestDraws:
    @pytest.mark.parametrize("distribution", ["uniform", "normal", "zipf"])
    def test_draws_stay_in_domain(self, distribution: str):
        gen = DataGenerator(
            domain=Domain(1, 100), distribution=distribution, rng=random.Random(7)
        )
        values = gen.values(2000)
        assert all(1 <= v <= 100 for v in values)
        assert all(isinstance(v, int) for v in values)

    def test_deterministic_given_seed(self):
        a = DataGenerator(rng=random.Random(42)).values(50)
        b = DataGenerator(rng=random.Random(42)).values(50)
        assert a == b

    def test_uniform_covers_domain_roughly(self):
        gen = DataGenerator(domain=Domain(1, 4), rng=random.Random(3))
        counts = Counter(gen.values(4000))
        assert set(counts) == {1, 2, 3, 4}
        assert all(800 < c < 1200 for c in counts.values())

    def test_normal_concentrates_at_midpoint(self):
        gen = DataGenerator(
            domain=Domain(1, 1001), distribution="normal", rng=random.Random(5)
        )
        values = gen.values(3000)
        mean = sum(values) / len(values)
        assert 450 < mean < 550

    def test_zipf_skews_low(self):
        gen = DataGenerator(
            domain=Domain(1, 1000), distribution="zipf", rng=random.Random(5)
        )
        values = gen.values(3000)
        low_mass = sum(1 for v in values if v <= 10) / len(values)
        assert low_mass > 0.5  # heavy head at the low ranks


class TestBulk:
    def test_node_datasets_shape(self):
        gen = DataGenerator(rng=random.Random(1))
        datasets = gen.node_datasets(5, 7)
        assert len(datasets) == 5
        assert all(len(d) == 7 for d in datasets)

    def test_nodes_must_be_positive(self):
        with pytest.raises(ValueError, match="nodes"):
            DataGenerator(rng=random.Random(1)).node_datasets(0, 5)
