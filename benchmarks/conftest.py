"""Shared inputs for the wall-clock floor benches.

``bench/`` (``BENCHMARK.json``) is the repo's benchmark: six end-to-end
workloads, one schema.  What lives *here* is only what that harness cannot
state: a floor on the wall-clock **ratio between two implementations or
configurations** (vectorized vs session executor, columnar vs row store,
tracer installed vs not, DP release vs plain batch, batch vs sequential,
sharded vs flat, pool vs serial), each measured interleaved in one process
so machine noise hits both sides alike.  Every bench writes one document
through :mod:`benchdoc`; ``make bench`` runs them all, ``make
check-floors`` re-reads the committed documents.  Run from the repo root::

    PYTHONPATH=src python -m pytest -q -s benchmarks/
"""

from __future__ import annotations

import random

BENCH_SEED = 2025


def make_vectors(
    n: int, per_node: int, seed: int, *, prefix: str = "n"
) -> dict[str, list[float]]:
    """Synthetic per-node workloads on the paper's integer domain [1, 10000].

    The draw order (one seeded RNG, nodes outer, values inner) is part of
    the contract: benches assert parity for a given seed, so changing it
    would silently re-seed every one of them.  ``prefix`` only renames the
    node ids ("n0..." vs "p0...") and does not perturb the value stream.
    """
    rng = random.Random(seed)
    return {
        f"{prefix}{i}": [float(rng.randint(1, 10_000)) for _ in range(per_node)]
        for i in range(n)
    }
