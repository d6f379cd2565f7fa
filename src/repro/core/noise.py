"""Pluggable noise strategies for the randomized local algorithms.

Section 7: "given the probabilistic scheme, it is possible to design other
forms of randomization probability and randomized algorithms.  We are
interested in conducting a theoretical analysis for discovering the optimal
randomized algorithm."  The *where the noise lands* inside the admissible
range ``[low, high)`` is exactly such a design axis:

* :class:`UniformNoise` — the paper's choice; every admissible value equally
  likely, so observing noise reveals nothing about where in the range it
  came from.
* :class:`HighBiasedNoise` — mass pushed toward the top of the range; the
  global value climbs faster (helping downstream nodes hide) at the cost of
  noise that correlates with the hider's value.
* :class:`LowBiasedNoise` — mass pushed toward the bottom; maximally
  uninformative about the hider's value but slows the climb.

All strategies draw from the half-open ``[low, high)`` and respect integral
domains.  ``tests/experiments/test_ablations.py`` measures the resulting
precision/privacy tradeoff.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .sampling import SamplingError, random_value_in


def _map_unit_draw(
    u: float, low: float, high: float, *, integral: bool
) -> float:
    """Map a unit-interval draw onto [low, high), honouring integral domains."""
    if not 0.0 <= u < 1.0:
        raise SamplingError(f"unit draw out of range: {u}")
    if integral:
        lo = math.ceil(low)
        hi = math.ceil(high) - 1
        if hi < lo:
            raise SamplingError(f"no integer in random range [{low}, {high})")
        return float(lo + int(u * (hi - lo + 1)))
    value = low + u * (high - low)
    return value if value < high else low


@dataclass(frozen=True)
class UniformNoise:
    """The paper's strategy: uniform over the admissible range."""

    def draw(
        self, rng: random.Random, low: float, high: float, *, integral: bool
    ) -> float:
        return random_value_in(rng, low, high, integral=integral)


@dataclass(frozen=True)
class HighBiasedNoise:
    """Noise biased toward the top of the range.

    Draws the maximum of ``order`` uniform variates, i.e. a Beta(order, 1)
    unit draw — with ``order=2`` the expected position is 2/3 of the range
    instead of 1/2.
    """

    order: int = 2

    def __post_init__(self) -> None:
        if self.order < 1:
            raise SamplingError(f"order must be >= 1, got {self.order}")

    def draw(
        self, rng: random.Random, low: float, high: float, *, integral: bool
    ) -> float:
        if low >= high:
            raise SamplingError(f"empty random range [{low}, {high})")
        u = max(rng.random() for _ in range(self.order))
        return _map_unit_draw(u, low, high, integral=integral)


@dataclass(frozen=True)
class LowBiasedNoise:
    """Noise biased toward the bottom of the range (min of ``order`` draws)."""

    order: int = 2

    def __post_init__(self) -> None:
        if self.order < 1:
            raise SamplingError(f"order must be >= 1, got {self.order}")

    def draw(
        self, rng: random.Random, low: float, high: float, *, integral: bool
    ) -> float:
        if low >= high:
            raise SamplingError(f"empty random range [{low}, {high})")
        u = min(rng.random() for _ in range(self.order))
        return _map_unit_draw(u, low, high, integral=integral)


#: Anything with the ``draw`` signature above.
NoiseStrategy = UniformNoise | HighBiasedNoise | LowBiasedNoise
