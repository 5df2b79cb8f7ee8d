"""Generation of genus-compatible cusp configurations and the filter pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .hf import HfContext, HfReport, hf_check, multiplicity_bound_check
from .spectra import SemicontinuityReport, SpectrumContext, semicontinuity_check

DEFAULT_CANDIDATE_CAP = 10**6


class CandidateCapExceededError(RuntimeError):
    """The enumeration produced more configurations than the configured cap."""


def cusps_with_delta(delta: int) -> List[PuiseuxCusp]:
    """All one-pair cusps (r, s) with (r-1)(s-1) = 2*delta, sorted by r."""
    if delta < 1:
        return []
    mu = 2 * delta
    cusps = []
    for d1 in range(1, math.isqrt(mu) + 1):
        if mu % d1 != 0:
            continue
        d2 = mu // d1
        if d1 >= d2:
            continue
        r, s = d1 + 1, d2 + 1
        if r >= 2 and math.gcd(r, s) == 1:
            cusps.append(PuiseuxCusp(r, s))
    return cusps


def enumerate_unicuspidal(curve: CurveType) -> List[PuiseuxCusp]:
    """All single cusps whose delta invariant equals the curve genus."""
    if curve.g < 1:
        raise ValueError(f"curve {curve} has genus {curve.g}; need g >= 1")
    return cusps_with_delta(curve.g)


def enumerate_configurations(
    curve: CurveType,
    max_cusps: int,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> List[CuspConfiguration]:
    """All multisets of at most max_cusps cusps with total delta equal to g.

    Cusps within a configuration are listed in nondecreasing (delta, r, s)
    order, which makes the enumeration duplicate-free and deterministic.
    Only configurations with at least one cusp are returned; for g = 0 the
    list is empty.
    """
    if max_cusps < 1:
        raise ValueError(f"max_cusps must be >= 1, got {max_cusps}")
    if cap < 0:
        raise ValueError(f"candidate cap must be >= 0, got {cap}")
    results: List[CuspConfiguration] = []
    partial: List[PuiseuxCusp] = []

    def extend(remaining: int, slots: int, floor_key) -> None:
        if remaining == 0:
            if partial:
                if len(results) >= cap:
                    raise CandidateCapExceededError(
                        f"more than {cap} genus-compatible configurations"
                    )
                results.append(CuspConfiguration(tuple(partial)))
            return
        if slots == 0:
            return
        min_delta = floor_key[0] if floor_key else 1
        for delta in range(min_delta, remaining + 1):
            for cusp in cusps_with_delta(delta):
                key = (delta, cusp.r, cusp.s)
                if floor_key and key < floor_key:
                    continue
                partial.append(cusp)
                extend(remaining - delta, slots - 1, key)
                partial.pop()

    extend(curve.g, max_cusps, None)
    return results


@dataclass(frozen=True)
class CandidateVerdict:
    """Aggregated per-configuration filter results."""

    configuration: CuspConfiguration
    genus_ok: bool
    multiplicity_ok: bool
    hf: Optional[HfReport]
    spectrum: Optional[SemicontinuityReport]

    @property
    def survives(self) -> bool:
        return (
            self.genus_ok
            and self.multiplicity_ok
            and self.hf is not None
            and not self.hf.obstructed
            and self.spectrum is not None
            and not self.spectrum.obstructed
        )


class CurveContext:
    """Curve-level data of both filters, built once per curve and shared by
    the configurations of one call."""

    def __init__(self, curve: CurveType):
        self.curve = curve
        self.hf = HfContext(curve)
        self.spectrum = SpectrumContext(curve)


def evaluate_candidate(
    curve: CurveType,
    config: CuspConfiguration,
    fast: bool = False,
    context: Optional[CurveContext] = None,
) -> CandidateVerdict:
    """Run the filters genus -> multiplicity -> semigroup counting -> spectrum.

    In fast mode later filters are skipped once one fails; otherwise all are
    evaluated so the verdict carries complete witnesses.  `context`, when
    given, must belong to `curve`; without one a one-off context is built.
    """
    genus_ok = config.is_genus_compatible(curve)
    if not genus_ok:
        return CandidateVerdict(config, False, False, None, None)
    multiplicity_ok = all(
        multiplicity_bound_check(curve, cusp) for cusp in config
    )
    if fast and not multiplicity_ok:
        return CandidateVerdict(config, True, False, None, None)
    if context is None:
        context = CurveContext(curve)
    hf_report = hf_check(curve, config, context=context.hf)
    if fast and hf_report.obstructed:
        return CandidateVerdict(config, True, multiplicity_ok, hf_report, None)
    spectrum_report = semicontinuity_check(curve, config, context=context.spectrum)
    return CandidateVerdict(
        config, True, multiplicity_ok, hf_report, spectrum_report
    )


def run_pipeline(
    curve: CurveType,
    configs: List[CuspConfiguration],
    fast: bool = False,
) -> List[CandidateVerdict]:
    """Evaluate every configuration, sharing one CurveContext among them."""
    context = CurveContext(curve)
    return [
        evaluate_candidate(curve, config, fast=fast, context=context)
        for config in configs
    ]
