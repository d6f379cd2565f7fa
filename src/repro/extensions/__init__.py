"""Extensions beyond the paper's core protocol: group-parallel scaling
(Section 4.2), secure sums, the secure kth-ranked element (related work) and
the privacy-preserving kNN classifier (Section 7 future work)."""

from .._lazy import lazy_exports

_EXPORTS = {
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
    "securesum": ("SecureSumError", "SecureSumResult", "run_secure_sum"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
