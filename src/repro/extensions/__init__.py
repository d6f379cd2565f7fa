"""Extensions beyond the paper's core protocol: group-parallel scaling
(Section 4.2), secure sum, the privacy-preserving kNN classifier
(Section 7 future work) and malicious-model attack simulations
(Section 2.1)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "attacks": (
        "AttackError",
        "AttackOutcome",
        "run_hiding_attack",
        "run_spoofing_attack",
    ),
    "commitments": (
        "Commitment",
        "CommitmentError",
        "Opening",
        "audit_values",
        "commit",
        "verify_opening",
    ),
    "groups": (
        "GroupError",
        "GroupedRunResult",
        "partition_into_groups",
        "run_grouped_max",
        "run_grouped_topk",
    ),
    "knn": (
        "KNNError",
        "KNNPrediction",
        "LabeledPoint",
        "PrivateKNNClassifier",
        "PrivateParty",
        "euclidean",
    ),
    "ksecuresum": ("KSecureSumResult", "KSecureSumRound", "run_k_secure_sum"),
    "kth_element": ("KthElementError", "KthElementResult", "kth_largest", "median"),
    "monitoring": ("ContinuousTopKMonitor", "EpochOutcome", "MonitorError"),
    "securesum": ("SecureSumError", "SecureSumResult", "run_secure_sum"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
