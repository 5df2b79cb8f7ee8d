"""Generation of genus-compatible cusp configurations.

`enumerate_configurations` lists every multiset of cusps whose delta
invariants sum to the genus by an iterative depth-first search over the
cusps in (delta, r, s) order, so each configuration comes out once, sorted.
"""

from __future__ import annotations

import math
from typing import List

from .core import CurveType, CuspConfiguration, PuiseuxCusp

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
        results.append(CuspConfiguration(partial))
        partial.pop()
    return results
