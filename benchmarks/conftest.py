"""Shared configuration for the benchmark harness.

Every paper table/figure has one bench module (``test_bench_<id>.py``) that
regenerates it at reduced trial counts, asserts the paper's qualitative
shape, and reports timing through pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only

Ablation benches (``test_bench_ablation_*.py``) measure the design choices
DESIGN.md calls out: randomization schedules, per-round remapping, the
Algorithm 2 delta, insert-once, and group-parallel scaling.
"""

from __future__ import annotations

import random

import pytest

# The one fixture that lets a small workload reach the runner's process pool
# lives with the tier-1 suite; benches are run as ``python -m pytest`` from
# the repository root, which is what makes ``tests`` importable here.
from tests.conftest import ungated_pool  # noqa: F401

#: Trials per measured point.  Small enough to keep the full harness quick,
#: large enough that the qualitative shape assertions are stable.
BENCH_TRIALS = 10
BENCH_SEED = 2025


def make_vectors(
    n: int, per_node: int, seed: int, *, prefix: str = "n"
) -> dict[str, list[float]]:
    """Synthetic per-node workloads on the paper's integer domain [1, 10000].

    The single source of the bench modules' input data.  The draw order
    (one seeded RNG, nodes outer, values inner) is part of the contract:
    several benches assert exact results for a given seed, so changing it
    would silently re-seed every one of them.  ``prefix`` only renames the
    node ids ("n0..." vs "p0...") and does not perturb the value stream.
    """
    rng = random.Random(seed)
    return {
        f"{prefix}{i}": [float(rng.randint(1, 10_000)) for _ in range(per_node)]
        for i in range(n)
    }


@pytest.fixture
def bench_trials() -> int:
    return BENCH_TRIALS


@pytest.fixture
def bench_seed() -> int:
    return BENCH_SEED
