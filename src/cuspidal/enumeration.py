"""Generation of genus-compatible cusp configurations and the filter pipeline.

The filters take only (curve, config) and memoise what they share by value,
so `run_pipeline` and single calls share it alike:

- by curve, for the most recent curve (`lru_cache(maxsize=1)`): the maximal
  presentation line of `hf` and the spectrum at infinity of `spectra`;
- by cusp, for up to 1024 cusps (`lru_cache(maxsize=1024)`): the semigroup
  element list of `semigroups` and the spectrum numerators of `spectra`;
- by (curve, config), for the most recent configuration
  (`lru_cache(maxsize=1)`): the combined element list of `semigroups`, the
  max-plus convolution e[v] = max_{p+q=v} e1[p] + e2[q] of the cusps' lists,
  whose counting function is the infimum convolution R of the HF check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .hf import HfReport, hf_check, multiplicity_bound_check
from .spectra import SemicontinuityReport, semicontinuity_check

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
        if math.gcd(r, s) == 1:
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
    # Every cusp of delta at most g, in (delta, r, s) order.
    choices = [
        (delta, cusp)
        for delta in range(1, curve.g + 1)
        for cusp in cusps_with_delta(delta)
    ]
    results: List[CuspConfiguration] = []
    partial: List[PuiseuxCusp] = []
    # Depth-first search without recursion, so a configuration may have more
    # cusps than Python has stack frames.  stack[k] holds, for the prefix
    # partial[:k], the next index into `choices` and the delta still missing.
    stack = [[0, curve.g]]
    while stack:
        frame = stack[-1]
        j, remaining = frame
        if len(partial) == max_cusps or j == len(choices) or choices[j][0] > remaining:
            stack.pop()
            if partial:
                partial.pop()
            continue
        frame[0] = j + 1
        delta, cusp = choices[j]
        partial.append(cusp)
        if delta < remaining:
            stack.append([j, remaining - delta])
            continue
        if len(results) >= cap:
            raise CandidateCapExceededError(
                f"more than {cap} genus-compatible configurations"
            )
        results.append(CuspConfiguration(tuple(partial)))
        partial.pop()
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


def evaluate_candidate(
    curve: CurveType, config: CuspConfiguration
) -> CandidateVerdict:
    """Run the filters genus -> multiplicity -> semigroup counting -> spectrum.

    Every filter runs on a genus-compatible configuration, so the verdict
    carries complete witnesses.
    """
    if not config.is_genus_compatible(curve):
        return CandidateVerdict(config, False, False, None, None)
    multiplicity_ok = all(
        multiplicity_bound_check(curve, cusp) for cusp in config
    )
    return CandidateVerdict(
        config,
        True,
        multiplicity_ok,
        hf_check(curve, config),
        semicontinuity_check(curve, config),
    )


def run_pipeline(
    curve: CurveType, configs: List[CuspConfiguration]
) -> List[CandidateVerdict]:
    """Evaluate every configuration of one curve."""
    return [evaluate_candidate(curve, config) for config in configs]
