"""The semigroup-distribution obstruction and the correction-term formula.

For a curve of type (a, b) with genus g, every integer m in [-g, g] whose
shifted value n = m + g - 1 is divisible by c = gcd(a, b) admits integer
presentations n = s1*b + s2*w with w = a + b*e.  The obstruction requires
R(m + g) >= P(s1, s2) with P(s1, s2) = (s1+1)(s2+1) + s2(s2+1)e/2 for every
such presentation; it is enough to compare against the maximal P.

R(t) is read off the configuration's semigroup element list
(`semigroups.curve_elements`): the number of elements below t for t <= 2g,
and t - g beyond.  That list is memoised by (curve, config) value for the
most recent configuration, so `hf_check` and every m of `d_invariant` on one
configuration fold it once.

The maximal presentation of every m in [-g, g] depends only on the curve, so
it is memoised by curve value for the most recent curve (`_p_max_line`,
`lru_cache(maxsize=1)`): the configurations of one curve share it and a new
curve replaces it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .semigroups import curve_elements


class HfWitness(NamedTuple):
    """A violated presentation: R(m + g) < P(s1, s2)."""

    m: int
    s1: int
    s2: int
    r_value: int
    p_value: int


class HfReport(NamedTuple):
    witnesses: Tuple[HfWitness, ...]

    @property
    def obstructed(self) -> bool:
        return bool(self.witnesses)

    @property
    def verdict(self) -> str:
        return "obstructed" if self.obstructed else "passes"


def p_bound(s1: int, s2: int, e: int) -> int:
    """(s1+1)(s2+1) + s2(s2+1)e/2, an exact integer for all arguments."""
    return (s1 + 1) * (s2 + 1) + s2 * (s2 + 1) // 2 * e


def max_p_over_presentations(
    curve: CurveType, n: int
) -> Optional[Tuple[int, int, int]]:
    """The presentation s1*b + s2*w = n maximizing P, or None if c does not divide n.

    Solutions form the line (s1_0 + k*w/c, s2_0 - k*b/c); P restricted to the
    line is a downward-opening quadratic in k, so the maximum sits next to the
    real vertex.  A +-2 window around the vertex is scanned.  Ties are broken
    towards the larger s1.
    """
    b, w, e = curve.b, curve.w, curve.e
    c = math.gcd(b, w)
    if n % c != 0:
        return None
    step1, step2 = w // c, b // c
    s1_0 = n // c * pow(step2, -1, step1)
    s2_0 = (n - s1_0 * b) // w

    def at(k: int) -> Tuple[int, int, int]:
        s1 = s1_0 + k * step1
        s2 = s2_0 - k * step2
        return s1, s2, p_bound(s1, s2, e)

    # Fit P(k) = A k^2 + B k + C through three samples: 2A < 0 because
    # a + b*e/2 > 0, and the vertex -B/(2A) is (p_m1 - p_1) / (2 * 2A).
    p_m1, p_0, p_1 = at(-1)[2], at(0)[2], at(1)[2]
    twice_a = p_1 + p_m1 - 2 * p_0
    if twice_a >= 0:
        raise AssertionError("P must be concave along the presentation line")
    numerator, denominator = p_m1 - p_1, 2 * twice_a
    lo = numerator // denominator - 2
    hi = -(-numerator // denominator) + 2
    best = None
    for k in range(lo, hi + 1):
        s1, s2, p = at(k)
        if best is None or (p, s1) > (best[2], best[0]):
            best = (s1, s2, p)
    return best


@lru_cache(maxsize=1)
def _p_max_line(curve: CurveType) -> Tuple[Tuple[int, int, int, int], ...]:
    """(m, s1, s2, P) of the maximal presentation of every m in [-g, g] that has one."""
    g = curve.g
    return tuple(
        (m, *best)
        for m in range(-g, g + 1)
        if (best := max_p_over_presentations(curve, m + g - 1)) is not None
    )


def hf_check(curve: CurveType, config: CuspConfiguration) -> HfReport:
    """Scan all m in [-g, g] and collect every violated presentation."""
    elements = curve_elements(curve, config)
    g = curve.g
    witnesses = []
    for m, s1, s2, p in _p_max_line(curve):
        r_value = bisect_left(elements, m + g)
        if r_value < p:
            witnesses.append(HfWitness(m, s1, s2, r_value, p))
    return HfReport(tuple(witnesses))


def multiplicity_bound_check(curve: CurveType, cusp: PuiseuxCusp) -> bool:
    """True iff the cusp multiplicity r is at most b.

    This is the specialization s1 = 1, s2 = 0 of the full scan: a cusp with
    r > b has no semigroup element in (0, b + 1), forcing R(b + 1) = 1 < 2.
    """
    return cusp.r <= curve.b


def d_invariant(curve: CurveType, config: CuspConfiguration, m: int) -> Fraction:
    """The correction term of the boundary of the curve neighbourhood.

    d = -[((d - 2m)^2 - d) / (4d) - 2(R(m + g) - m)], exact, for
    m in [-d/2, d/2).
    """
    d, g = curve.d, curve.g
    if not (-d <= 2 * m < d):
        raise ValueError(f"m must lie in [-{d}/2, {d}/2), got {m}")
    t = m + g
    r_value = bisect_left(curve_elements(curve, config), t) if t <= 2 * g else t - g
    square_term = Fraction((d - 2 * m) ** 2 - d, 4 * d)
    return -(square_term - 2 * (r_value - m))
