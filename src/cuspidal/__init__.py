"""Exact obstruction checks and candidate enumeration for rational cuspidal
curves in Hirzebruch surfaces."""

from .core import (
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    PuiseuxCusp,
)
from .semigroups import curve_elements
from .hf import (
    HfReport,
    HfWitness,
    d_invariant,
    hf_check,
    max_p_over_presentations,
    multiplicity_bound_check,
    p_bound,
)
from .spectra import (
    SemicontinuityReport,
    SemicontinuityWitness,
    SpectrumMultiset,
    alexander_order,
    cusp_spectrum,
    semicontinuity_check,
    signature_profile,
    spectrum_at_infinity_derived,
    spectrum_at_infinity_table,
)
from .dedekind import (
    LimitReport,
    dedekind_sum,
    rademacher_sum,
    sawtooth,
    section_sums,
    verify_limits,
)
from .enumeration import (
    CandidateCapExceededError,
    enumerate_configurations,
    enumerate_unicuspidal,
)

__all__ = [
    "CandidateCapExceededError",
    "CurveType",
    "CuspConfiguration",
    "GenusMismatchError",
    "HfReport",
    "HfWitness",
    "LimitReport",
    "PuiseuxCusp",
    "SemicontinuityReport",
    "SemicontinuityWitness",
    "SpectrumMultiset",
    "alexander_order",
    "curve_elements",
    "cusp_spectrum",
    "d_invariant",
    "dedekind_sum",
    "enumerate_configurations",
    "enumerate_unicuspidal",
    "hf_check",
    "max_p_over_presentations",
    "multiplicity_bound_check",
    "p_bound",
    "rademacher_sum",
    "sawtooth",
    "section_sums",
    "semicontinuity_check",
    "signature_profile",
    "spectrum_at_infinity_derived",
    "spectrum_at_infinity_table",
    "verify_limits",
]

__version__ = "0.1.0"
