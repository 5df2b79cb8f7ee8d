"""The semigroup-distribution obstruction and the correction-term formula.

For a curve of type (a, b) with genus g, every integer m in [-g, g] whose
shifted value n = m + g - 1 is divisible by c = gcd(a, b) admits integer
presentations n = s1*b + s2*w with w = a + b*e.  The obstruction requires
R(m + g) >= P(s1, s2) with P(s1, s2) = (s1+1)(s2+1) + s2(s2+1)e/2 for every
such presentation; it is enough to compare against the maximal P.  Along
the solution line s2 runs over one residue class mod b/c, and
s1 + 1 = (n + b - s2*w)/b with 2w - b*e = 2a + b*e = q = d/b, so

    2b * P = (s2 + 1)(2(n + b) - q*s2).

`CurveType` rejects d <= 0, so q > 0: P is a downward parabola in s2 with
its vertex midway between the roots -1 and 2(n + b)/q, at
(2(n + b) - q)/(2q), and the maximum is at the solution at or below the
vertex or at the next one up.

R(t) is read off the configuration's semigroup element list
(`semigroups.curve_elements`): the number of elements below t for t <= 2g,
and t - g beyond.

One scan, `_violations`, has two kinds of consumer: `hf_check` collects
every violated presentation as an `HfWitness`, and
`enumeration.filter_verdicts` stops at the first and builds no witness.

Two maps of the type keep every m, R(m + g) and maximal P.  (a + b, b, e - 2)
has the same d, g and c and w - b for w, so (s1, s2) maps to (s1 + s2, s2),
and P keeps its value as s2(s2 + 1) moves from the e-term to the first.  On
X_0, swapping a and b swaps s1 and s2, and P = (s1 + 1)(s2 + 1) is symmetric.

The maximal presentations of all m in [-g, g], `_p_max_line`, depend only
on the curve: a check builds them per call, and `filter_verdicts` per curve.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from numbers import Rational
from typing import Iterator, NamedTuple, Optional, Tuple

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

    Of the two solutions next to the vertex of P (see the module docstring),
    ties go to the one with the larger s1.
    """
    b, w, e = curve.b, curve.w, curve.e
    c = math.gcd(b, w)
    if n % c != 0:
        return None
    step = b // c
    residue = n // c * pow(w // c, -1, step) % step
    q = curve.d // b
    num, den = 2 * (n + b) - q, 2 * q  # the vertex is num/den
    below = residue + (num - residue * den) // (step * den) * step
    # max keeps the first of equal P: the lower s2, so the larger s1.
    s1, s2 = max(
        [((n - s2 * w) // b, s2) for s2 in (below, below + step)],
        key=lambda s1_s2: p_bound(*s1_s2, e),
    )
    return s1, s2, p_bound(s1, s2, e)


def _p_max_line(curve: CurveType) -> Tuple[Tuple[int, int, int, int], ...]:
    """(m, s1, s2, P) of the maximal presentation of every m in [-g, g] that has one."""
    g = curve.g
    return tuple(
        (m, *best)
        for m in range(-g, g + 1)
        if (best := max_p_over_presentations(curve, m + g - 1)) is not None
    )


def _violations(
    line: Tuple[Tuple[int, int, int, int], ...], g: int, elements: Tuple[int, ...]
) -> Iterator[Tuple[int, int, int, int, int]]:
    """(m, s1, s2, R(m + g), P) of every violated entry of the curve's
    `_p_max_line`, given the configuration's fold, in increasing m, lazily."""
    for m, s1, s2, p in line:
        r_value = bisect_left(elements, m + g)
        if r_value < p:
            yield m, s1, s2, r_value, p


def hf_check(curve: CurveType, config: CuspConfiguration) -> HfReport:
    """Scan all m in [-g, g] and collect every violated presentation."""
    elements = curve_elements(curve, config)
    violations = _violations(_p_max_line(curve), curve.g, elements)
    return HfReport(tuple(map(HfWitness._make, violations)))


def multiplicity_bound_check(curve: CurveType, cusp: PuiseuxCusp) -> bool:
    """True iff the cusp multiplicity r is at most b.

    This is the specialization s1 = 1, s2 = 0 of the full scan: a cusp with
    r > b has no semigroup element in (0, b + 1), forcing R(b + 1) = 1 < 2.
    """
    return cusp.r <= curve.b


def d_invariant(curve: CurveType, config: CuspConfiguration, m: int) -> Rational:
    """The correction term of the boundary of the curve neighbourhood.

    d = -[((d - 2m)^2 - d) / (4d) - 2(R(m + g) - m)], exact, for
    m in [-d/2, d/2).
    """
    return _d_invariant(curve, curve_elements(curve, config), m)


def _d_invariant(curve: CurveType, elements: Tuple[int, ...], m: int) -> Rational:
    """`d_invariant` given the configuration's fold."""
    d, g = curve.d, curve.g
    if not (-d <= 2 * m < d):
        raise ValueError(f"m must lie in [-{d}/2, {d}/2), got {m}")
    t = m + g
    r_value = bisect_left(elements, t) if t <= 2 * g else t - g
    from fractions import Fraction

    square_term = Fraction((d - 2 * m) ** 2 - d, 4 * d)
    return -(square_term - 2 * (r_value - m))
