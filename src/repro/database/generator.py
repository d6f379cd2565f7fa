"""Synthetic workload generators reproducing the paper's experiment setup.

Section 5.1: "The attribute values at each node are randomly generated over
the integer domain [1, 10000].  We experimented with various distributions of
data, such as uniform distribution, normal distribution, and zipf
distribution."

All generators draw integers from a :class:`~repro.database.query.Domain` and
are deterministic given a seeded ``random.Random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .query import PAPER_DOMAIN, Domain

#: Distribution names accepted by :class:`DataGenerator`.
DISTRIBUTIONS = ("uniform", "normal", "zipf")


@dataclass
class DataGenerator:
    """Draws attribute values for node-local datasets.

    Parameters
    ----------
    domain:
        Public integer domain; defaults to the paper's [1, 10000].
    distribution:
        One of :data:`DISTRIBUTIONS`.
    rng:
        Source of randomness; pass a seeded ``random.Random`` for
        reproducible experiments.
    normal_sigma_fraction:
        For the normal distribution: standard deviation as a fraction of the
        domain width (mean is the domain midpoint).
    zipf_alpha:
        Skew of the zipf distribution over the domain's ranked values.
    """

    domain: Domain = PAPER_DOMAIN
    distribution: str = "uniform"
    rng: random.Random = field(default_factory=random.Random)
    normal_sigma_fraction: float = 0.15
    zipf_alpha: float = 1.2

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {DISTRIBUTIONS}"
            )
        if not self.domain.integral:
            raise ValueError("DataGenerator draws from integer domains only")
        if self.zipf_alpha <= 1.0:
            raise ValueError("zipf_alpha must be > 1 for a proper distribution")
        if self.normal_sigma_fraction <= 0:
            raise ValueError("normal_sigma_fraction must be positive")

    # -- single draws --------------------------------------------------------

    def draw(self) -> int:
        """Draw one in-domain integer from the configured distribution."""
        low, high = int(self.domain.low), int(self.domain.high)
        if self.distribution == "uniform":
            return self.rng.randint(low, high)
        if self.distribution == "normal":
            mean = (low + high) / 2
            sigma = (high - low) * self.normal_sigma_fraction
            # Redraw rather than clamp: clamping piles probability mass on the
            # domain edges, which would distort max-query experiments.
            for _ in range(1000):
                value = round(self.rng.gauss(mean, sigma))
                if low <= value <= high:
                    return value
            return round(mean)
        # zipf: rank-frequency draw over the domain via inverse-CDF on a
        # truncated zeta distribution.  Rank 1 maps to the domain low so the
        # skew concentrates on small values, as in classic zipf workloads.
        rank = self._zipf_rank(high - low + 1)
        return low + rank - 1

    def _zipf_rank(self, n_ranks: int) -> int:
        """Sample a rank in [1, n_ranks] ~ 1/rank^alpha via rejection sampling.

        Uses the standard Devroye rejection method for the zeta distribution,
        truncated to ``n_ranks``.
        """
        alpha = self.zipf_alpha
        b = 2.0 ** (alpha - 1.0)
        while True:
            u = self.rng.random()
            v = self.rng.random()
            x = int(u ** (-1.0 / (alpha - 1.0)))
            if x < 1 or x > n_ranks:
                continue
            t = (1.0 + 1.0 / x) ** (alpha - 1.0)
            if v * x * (t - 1.0) / (b - 1.0) <= t / b:
                return x

    # -- bulk draws ----------------------------------------------------------

    def values(self, count: int) -> list[int]:
        """Draw ``count`` values."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.draw() for _ in range(count)]

    def node_datasets(self, nodes: int, values_per_node: int) -> list[list[int]]:
        """Draw one dataset per node."""
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        return [self.values(values_per_node) for _ in range(nodes)]
