"""Privacy model: claims, the privacy spectrum, LoP metric, adversaries."""

from .._lazy import lazy_exports

# ``precision`` names a submodule *and* the function it defines.  Importing
# the submodule binds the module under that name in this namespace, where a
# lazy lookup never gets to run; binding the function here, after that
# import, makes ``repro.privacy.precision`` the function in every import order.
from .precision import precision as precision

_EXPORTS = {
    "accounting": ("ExposureLedger",),
    "adversary": (
        "AdversaryError",
        "coalition_lop",
        "coalition_round_lop",
        "naive_range_exposure",
        "victim_is_sandwiched",
    ),
    "claims": ("Claim", "ClaimError", "ExposureKind", "RangeClaim", "ValueClaim"),
    "distribution": (
        "PosteriorReport",
        "coalition_posterior",
        "entropy_reduction_by_round",
    ),
    "dp": (
        "BudgetExhausted",
        "DpError",
        "DpGate",
        "DpPolicy",
        "GeometricMechanism",
        "LaplaceMechanism",
        "PrivacyAccountant",
        "SpendMeter",
        "calibrate_mechanism",
        "sensitivity_for",
    ),
    "groups": (
        "GroupError",
        "anonymity_set",
        "anonymity_size",
        "group_lop",
        "group_round_lop",
        "is_m_anonymous",
    ),
    "lop": (
        "ExposureProfile",
        "average_lop",
        "exposure_profile",
        "item_round_lop",
        "node_lop",
        "per_round_average_lop",
        "value_in",
        "worst_case_lop",
    ),
    "ranges": (
        "RangeExposureError",
        "node_range_lop",
        "range_claim_lop",
    ),
    "report": ("NodePrivacyRow", "PrivacyReport", "privacy_report"),
    "spectrum": ("SpectrumLevel", "classify"),
}

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, _EXPORTS, eager=("precision",)
)
