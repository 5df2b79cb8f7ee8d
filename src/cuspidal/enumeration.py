"""Generation of genus-compatible cusp configurations.

`configurations(g, max_cusps)` yields every multiset of cusps whose delta
invariants sum to g by an iterative depth-first search over the cusps in
(delta, r, s) order, so each configuration comes out once, sorted.  It is a
walk that nothing holds: a caller that needs the count walks it twice.

Every cusp after a slot has at least its delta, so only the last slot can
take a cusp of more than half the delta still missing: the others draw
from the cusps of delta <= g/2, and the last takes one of exactly the
missing delta, at or after its predecessor.  The cusps of delta <= g/2 are
built one delta at a time as the search reaches it (none with one cusp
allowed), so the first configuration comes at once however large g is.

`filter_verdicts` runs both filters over a listing, the one verdict-only
path: it reads the listing once, folds each prefix once, and reads each
scan's failures (`spectra._scan`) only up to the first, building no witness.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .hf import _p_max_line, _violations, multiplicity_bound_check
from .semigroups import _elements_along
from .spectra import _infinity_numerators, _scan


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


def configurations(g: int, max_cusps: int) -> Iterator[CuspConfiguration]:
    """All multisets of at most max_cusps cusps with total delta equal to g.

    Cusps within a configuration are listed in nondecreasing (delta, r, s)
    order, which makes the enumeration duplicate-free and deterministic.
    Only configurations with at least one cusp are yielded; for g = 0 there
    are none.
    """
    if max_cusps < 1:
        raise ValueError(f"max_cusps must be >= 1, got {max_cusps}")
    # The cusps that fit before the last slot so far, in (delta, r, s) order.
    choices: List[Tuple[int, PuiseuxCusp]] = []
    next_delta = 1
    completions: Dict[int, List[PuiseuxCusp]] = {}
    partial: List[PuiseuxCusp] = []
    # Depth-first search without recursion, so a configuration may have more
    # cusps than Python has stack frames.  stack[k] holds, for the prefix
    # partial[:k], the next index into `choices` and the delta still missing.
    stack = [[0, g]]
    while stack:
        frame = stack[-1]
        j, remaining = frame
        deeper = len(stack) < max_cusps
        while deeper and j == len(choices) and 2 * next_delta <= remaining:
            choices += ((next_delta, cusp) for cusp in cusps_with_delta(next_delta))
            next_delta += 1
        if deeper and j < len(choices) and 2 * choices[j][0] <= remaining:
            frame[0] = j + 1
            delta, cusp = choices[j]
            partial.append(cusp)
            stack.append([j, remaining - delta])
            continue
        # Complete the prefix with one cusp, after all its longer extensions.
        stack.pop()
        if remaining not in completions:
            completions[remaining] = cusps_with_delta(remaining)
        last = (partial[-1].delta, partial[-1]) if partial else (0,)
        for cusp in completions[remaining]:
            if (remaining, cusp) >= last:
                yield CuspConfiguration([*partial, cusp])
        if partial:
            partial.pop()


def filter_verdicts(
    curve: CurveType, configs: Iterable[CuspConfiguration]
) -> Iterator[Tuple[bool, bool, bool]]:
    """For each configuration in turn, whether it passes (every cusp has
    r <= b, HF, the spectrum), the columns of `enumerate`; each scan stops at
    its first violation and builds no witness.  Reads `configs` once, so it
    may be any iterable.

    Builds `_p_max_line` once, and `_infinity_numerators` at the first
    configuration with cusps, so never at genus 0, whose spectrum at infinity
    can be vast.  Raises `GenusMismatchError` at a configuration whose total
    delta is not g.
    """
    g, line, infinity = curve.g, _p_max_line(curve), None
    for config, elements in _elements_along(configs):
        if len(elements) != g + 1:  # a fold has total delta + 1 elements
            config.require_genus_compatible(curve)
        if config and infinity is None:
            infinity = _infinity_numerators(curve)
        yield (
            all(multiplicity_bound_check(curve, cusp) for cusp in config),
            next(_violations(line, g, elements), None) is None,
            # No cusps: no point can fail.
            not config or next(_scan(infinity, config)[2], None) is None,
        )
