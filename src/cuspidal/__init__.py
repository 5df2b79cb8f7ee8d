"""Exact obstruction checks and candidate enumeration for rational cuspidal
curves in Hirzebruch surfaces.

`_EXPORTS` names each public symbol once, under the module that defines it,
and `__all__` is read off it.  Every name, and each of those modules as
`cuspidal.<module>`, loads its module on first use (PEP 562) and then stays in
the package namespace, so `import cuspidal` loads no submodule until a name is
used.
"""

_EXPORTS = {
    "core": ("CurveType", "CuspConfiguration", "GenusMismatchError", "PuiseuxCusp"),
    "hf": (
        "HfReport", "HfWitness", "curve_elements", "d_invariant", "hf_check",
        "max_p_over_presentations", "multiplicity_bound_check", "p_bound",
    ),
    "spectra": (
        "SemicontinuityReport", "SemicontinuityWitness", "alexander_order",
        "semicontinuity_check", "signature_profile", "spectrum_at_infinity_derived",
        "spectrum_at_infinity_table",
    ),
    "enumeration": ("configurations", "enumerate_unicuspidal", "filter_verdicts"),
    "dedekind": (
        "LimitReport", "dedekind_sum", "rademacher_sum", "section_sums", "verify_limits",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # the import binds the submodule here
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
