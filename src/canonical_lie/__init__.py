"""Canonical elements of parabolic subalgebras of so(n), in exact arithmetic.

The package decides which conjugacy classes of so(n) grade a parabolic
subalgebra of so(n, C) canonically, constructs the parabolic with its
nilradical and descending series, enumerates all canonical classes, and
cross-validates the generation-based decision procedure against the
closed-form spectral classification.  Every computation is exact over the
rationals; there is no floating point anywhere.
"""

from .exactlin import RatMatrix, parse_rational, rref
from .liegraded import (
    DegenerateForm,
    GradingMap,
    GradingViolation,
    LieTable,
    LieTableError,
    NotMonomial,
    bracket_indices,
    polar_indices,
)
from .sonreal import (
    InvalidSpectrum,
    NotSkew,
    RealizationViolation,
    Spectrum,
    TooSmall,
    grading,
    spectrum_from_matrix,
)
from .canonical import (
    NotCanonical,
    OracleRecord,
    ParabolicData,
    Verdict,
    VerdictReason,
    condition1,
    enumerate_canonical,
    half_integral_count,
    half_integral_spectra,
    oracle_record,
    parabolic_of,
    prop3_check,
    prop3_report,
    strict_generation_report,
    theorem1_report,
    theorem2_check,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateForm",
    "GradingMap",
    "GradingViolation",
    "InvalidSpectrum",
    "LieTable",
    "LieTableError",
    "NotCanonical",
    "NotMonomial",
    "NotSkew",
    "OracleRecord",
    "ParabolicData",
    "RatMatrix",
    "RealizationViolation",
    "Spectrum",
    "TooSmall",
    "Verdict",
    "VerdictReason",
    "bracket_indices",
    "condition1",
    "enumerate_canonical",
    "grading",
    "half_integral_count",
    "half_integral_spectra",
    "oracle_record",
    "parabolic_of",
    "parse_rational",
    "polar_indices",
    "prop3_check",
    "prop3_report",
    "rref",
    "spectrum_from_matrix",
    "strict_generation_report",
    "theorem1_report",
    "theorem2_check",
]
