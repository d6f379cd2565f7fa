"""Experiment configuration (the paper's Table 1 plus harness knobs).

Table 1's parameters: ``n`` (number of nodes), ``k`` (top-k parameter),
``p0`` (initial randomization probability), ``d`` (dampening factor).  The
harness adds what any empirical rig needs: trial counts, seeds, per-node
dataset sizes and the data distribution (Section 5.1: values are drawn over
the integer domain [1, 10000]; uniform/normal/zipf give similar results, and
the paper reports uniform).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..core.driver import PROBABILISTIC, PROTOCOLS
from ..core.params import ProtocolParams
from ..database.generator import DISTRIBUTIONS
from ..database.query import PAPER_DOMAIN, Domain

#: The paper averages every plot over 100 experiments (Section 5.1).
PAPER_TRIALS = 100


@dataclass(frozen=True)
class TrialSetup:
    """Everything needed to run one batch of repeated protocol trials."""

    n: int
    k: int = 1
    protocol: str = PROBABILISTIC
    params: ProtocolParams = field(default_factory=ProtocolParams.paper_defaults)
    trials: int = PAPER_TRIALS
    values_per_node: int = 10
    distribution: str = "uniform"
    domain: Domain = PAPER_DOMAIN
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"the protocol requires n >= 3, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.values_per_node < 1:
            raise ValueError(f"values_per_node must be >= 1, got {self.values_per_node}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def _derived_seed(self, trial_index: int, stream: str) -> int:
        """SHA-256-derived 64-bit seed for one ``(seed, trial, stream)`` cell.

        Built with :mod:`hashlib` rather than ``hash()`` (whose string
        hashing is randomized per interpreter run) or modular arithmetic
        (whose 31-bit masking let distinct ``(seed, trial_index)`` pairs —
        and the old ``2s`` / ``2s+1`` data/protocol streams of *different*
        setups — collide).  Stable across processes, so parallel trial
        execution reproduces serial runs bit for bit.  Only ``seed``,
        ``trial_index`` and the stream tag enter the hash: two setups
        differing only in ``protocol`` see *paired* datasets — the protocol
        comparisons (Figures 10 and 12) are paired experiments.
        """
        if trial_index < 0:
            raise ValueError(f"trial_index must be >= 0, got {trial_index}")
        material = f"{self.seed}:{trial_index}:{stream}".encode()
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")

    def data_rng(self, trial_index: int) -> random.Random:
        return random.Random(self._derived_seed(trial_index, "data"))

    def protocol_seed(self, trial_index: int) -> int:
        return self._derived_seed(trial_index, "protocol")
