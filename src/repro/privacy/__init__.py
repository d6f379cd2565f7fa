"""Privacy model: claims, the privacy spectrum, LoP metric, adversaries."""

from .adversary import (
    AdversaryError,
    average_coalition_lop,
    coalition_lop,
    coalition_round_lop,
    naive_range_exposure,
    victim_is_sandwiched,
)
from .claims import Claim, ClaimError, ExposureKind, RangeClaim, ValueClaim
from .distribution import (
    PosteriorReport,
    coalition_posterior,
    entropy_reduction_by_round,
)
from .groups import (
    GroupError,
    anonymity_set,
    anonymity_size,
    group_lop,
    group_round_lop,
    is_m_anonymous,
)
from .lop import (
    ExposureProfile,
    average_lop,
    exposure_profile,
    item_round_lop,
    node_lop,
    node_round_lop,
    per_round_average_lop,
    value_in,
    worst_case_lop,
)
from .accounting import BudgetExceededError, ExposureLedger
from .dp import (
    BudgetExhausted,
    DpError,
    DpGate,
    DpPolicy,
    GeometricMechanism,
    LaplaceMechanism,
    PrivacyAccountant,
    SpendMeter,
    calibrate_mechanism,
    sensitivity_for,
)
from .precision import is_exact, precision
from .ranges import (
    RangeExposureError,
    average_range_lop,
    node_range_lop,
    range_claim_lop,
)
from .report import NodePrivacyRow, PrivacyReport, privacy_report
from .spectrum import SpectrumLevel, classify

__all__ = [
    "AdversaryError",
    "BudgetExceededError",
    "BudgetExhausted",
    "DpError",
    "DpGate",
    "DpPolicy",
    "ExposureLedger",
    "ExposureProfile",
    "GeometricMechanism",
    "LaplaceMechanism",
    "PrivacyAccountant",
    "SpendMeter",
    "calibrate_mechanism",
    "sensitivity_for",
    "Claim",
    "ClaimError",
    "ExposureKind",
    "GroupError",
    "NodePrivacyRow",
    "PosteriorReport",
    "PrivacyReport",
    "RangeClaim",
    "RangeExposureError",
    "SpectrumLevel",
    "ValueClaim",
    "anonymity_set",
    "anonymity_size",
    "average_coalition_lop",
    "average_lop",
    "average_range_lop",
    "classify",
    "coalition_lop",
    "coalition_posterior",
    "coalition_round_lop",
    "entropy_reduction_by_round",
    "exposure_profile",
    "group_lop",
    "group_round_lop",
    "is_m_anonymous",
    "is_exact",
    "item_round_lop",
    "naive_range_exposure",
    "node_lop",
    "node_range_lop",
    "node_round_lop",
    "per_round_average_lop",
    "precision",
    "privacy_report",
    "range_claim_lop",
    "value_in",
    "victim_is_sandwiched",
    "worst_case_lop",
]
