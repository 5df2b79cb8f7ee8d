"""Exact obstruction checks and candidate enumeration for rational cuspidal
curves in Hirzebruch surfaces.

The `dedekind` names load on first use (PEP 562), so that importing the
package, and the CLI with it, does not load the sawtooth sums.
"""

from .core import (
    CurveType,
    CuspConfiguration,
    GenusMismatchError,
    PuiseuxCusp,
)
from .hf import (
    HfReport,
    HfWitness,
    curve_elements,
    d_invariant,
    hf_check,
    max_p_over_presentations,
    multiplicity_bound_check,
    p_bound,
)
from .spectra import (
    SemicontinuityReport,
    SemicontinuityWitness,
    alexander_order,
    semicontinuity_check,
    signature_profile,
    spectrum_at_infinity_derived,
    spectrum_at_infinity_table,
)
from .enumeration import (
    configurations,
    enumerate_unicuspidal,
    filter_verdicts,
)

__all__ = [
    "CurveType",
    "CuspConfiguration",
    "GenusMismatchError",
    "HfReport",
    "HfWitness",
    "LimitReport",
    "PuiseuxCusp",
    "SemicontinuityReport",
    "SemicontinuityWitness",
    "alexander_order",
    "configurations",
    "curve_elements",
    "d_invariant",
    "dedekind_sum",
    "enumerate_unicuspidal",
    "filter_verdicts",
    "hf_check",
    "max_p_over_presentations",
    "multiplicity_bound_check",
    "p_bound",
    "rademacher_sum",
    "section_sums",
    "semicontinuity_check",
    "signature_profile",
    "spectrum_at_infinity_derived",
    "spectrum_at_infinity_table",
    "verify_limits",
]

__version__ = "0.1.0"

_DEDEKIND = frozenset({
    "LimitReport",
    "dedekind_sum",
    "rademacher_sum",
    "section_sums",
    "verify_limits",
})


def __getattr__(name: str):
    if name in _DEDEKIND:
        from . import dedekind

        return getattr(dedekind, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
