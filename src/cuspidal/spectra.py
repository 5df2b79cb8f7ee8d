"""Spectra as exact multisets of rationals, held as int numerators.

A `SpectrumMultiset` holds a denominator D, the sorted distinct numerators n
of its values n/D, their multiplicities and prefix sums.  Both constructions
of the spectrum at infinity (the closed-form table, and the route through
equivariant signatures and the Alexander polynomial) use D = lcm(w, b): its
values are p/w, q/b, 1 and 1 plus those.  A cusp (r, s) has the values
(i*s + j*r)/(r*s), so D = r*s.  No construction makes a `Fraction`; the
views `entries`, `values`, `mult`, `count_open` and `is_symmetric_about_one`
do, as do error messages and reported witness points.

The cusp spectrum is read off the semigroup <r, s>.  Its numerators
i*s + j*r (1 <= i < r, 1 <= j < s) are distinct, since r divides
(i - i')*s only for i = i', so every multiplicity is 1.  Those below r*s
are exactly e + r + s for the delta elements e of <r, s> below the
conductor 2*delta = r*s - r - s + 1: such an e is (i - 1)*s + (j - 1)*r
with i < r and j >= 1, and e + r + s <= r*s forces j < s and excludes
r*s itself; conversely i*s + j*r - r - s < 2*delta is an element.  The
symmetry (i, j) -> (r - i, s - j) maps the rest onto 2*r*s - n.

The semicontinuity check compares cusp spectra against the spectrum at
infinity on every relevant open unit interval, on integers: with
L = 2 * lcm(w, b, r_1*s_1, ...) all values, the scan points and the
midpoints between them are integer multiples of 1/L.  Interval counts are
bisections of sorted int lists; cusp counts add up, so all cusps share one
list.

The check memoises the spectrum at infinity as numerators over lcm(w, b)
for the most recent curve (`_infinity_numerators`, `lru_cache(maxsize=1)`).
Its per-cusp input is the element list of `semigroups._cusp_elements`,
the one per-cusp memo, which the HF check reads too; `_cusp_numerators`
turns it into numerators without a memo of its own.  `cusp_spectrum` and
both constructions of the spectrum at infinity are not memoised.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Set, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .semigroups import _cusp_elements


class InternalConsistencyError(RuntimeError):
    """The signature/order data failed an integrality guarantee."""


class SpectrumMultiset:
    """A finite multiset of rationals in [0, 2], as int numerators over one
    denominator, with positive multiplicities."""

    def __init__(self, entries: Mapping[int, int], denominator: int = 1):
        """`entries` maps int numerators over `denominator` to multiplicities;
        zero multiplicities are dropped."""
        counts: Dict[int, int] = {}
        for n, mult in entries.items():
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} of {n}/{denominator}")
            if not 0 <= n <= 2 * denominator:
                raise ValueError(f"spectrum value {n}/{denominator} outside [0, 2]")
            counts[n] = mult
        self._denominator = denominator
        self._numerators: Tuple[int, ...] = tuple(sorted(counts))
        self._mults: Tuple[int, ...] = tuple(counts[n] for n in self._numerators)
        # prefix[i] = total multiplicity of the first i distinct values
        self._prefix: Tuple[int, ...] = (0, *itertools.accumulate(self._mults))

    @property
    def denominator(self) -> int:
        return self._denominator

    @property
    def total(self) -> int:
        return self._prefix[-1]

    def numerator_entries(self) -> Tuple[Tuple[int, int], ...]:
        """(numerator over `denominator`, multiplicity), in increasing order."""
        return tuple(zip(self._numerators, self._mults))

    def entries(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple(zip(self.values(), self._mults))

    def values(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self._denominator) for n in self._numerators)

    def mult(self, x: Fraction) -> int:
        n, remainder = divmod(x.numerator * self._denominator, x.denominator)
        i = bisect.bisect_left(self._numerators, n)
        if not remainder and i < len(self._numerators) and self._numerators[i] == n:
            return self._mults[i]
        return 0

    def count_open(self, lo: Fraction, hi: Fraction) -> int:
        """Total multiplicity strictly inside (lo, hi)."""
        # n/D > lo iff n > floor(lo*D), and n/D < hi iff n < ceil(hi*D)
        floor_lo = lo.numerator * self._denominator // lo.denominator
        ceil_hi = -(-hi.numerator * self._denominator // hi.denominator)
        i = bisect.bisect_right(self._numerators, floor_lo)
        j = bisect.bisect_left(self._numerators, ceil_hi)
        return self._prefix[j] - self._prefix[i]

    def is_symmetric_about_one(self) -> bool:
        """mult(x) = mult(2 - x) for all x."""
        two, pairs = 2 * self._denominator, self.numerator_entries()
        return pairs == tuple((two - n, mult) for n, mult in reversed(pairs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectrumMultiset):
            return NotImplemented
        # n/D = m/E iff n*E = m*D
        return self._mults == other._mults and [
            n * other._denominator for n in self._numerators
        ] == [m * self._denominator for m in other._numerators]

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        body = ", ".join(f"{v}^{m}" for v, m in self.entries())
        return f"SpectrumMultiset({{{body}}})"


def _cusp_numerators(cusp: PuiseuxCusp) -> List[int]:
    """The spectrum of `cusp` as sorted numerators over r*s, one per value,
    read off its semigroup (module docstring)."""
    r, s = cusp.r, cusp.s
    low = [r + s + e for e in _cusp_elements(cusp)[:-1]]
    return low + [2 * r * s - n for n in reversed(low)]


def cusp_spectrum(cusp: PuiseuxCusp) -> SpectrumMultiset:
    """The spectrum {i/r + j/s : 1 <= i < r, 1 <= j < s} of a one-pair cusp."""
    return SpectrumMultiset(dict.fromkeys(_cusp_numerators(cusp), 1), cusp.r * cusp.s)


def signature_profile(curve: CurveType) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Equivariant signatures (sigma1, sigma2) of the two splice components of
    the link at infinity; sigma1[p - 1] is the value at p, sigma2[q - 1] at q:

    sigma1 at p = 2*floor(p*b/w) - (b-1) - delta  for p in [1, w-1],
                  with delta = 1 iff w | p*b;
    sigma2 at q = 2*floor(q*a/b) - (a-1) - delta' for q in [1, b-1],
                  with delta' = 1 iff b | q*a.
    """
    a, b, w = curve.a, curve.b, curve.w
    sigma1 = tuple(
        2 * (p * b // w) - (b - 1) - (1 if p * b % w == 0 else 0)
        for p in range(1, w)
    )
    sigma2 = tuple(
        2 * (q * a // b) - (a - 1) - (1 if q * a % b == 0 else 0)
        for q in range(1, b)
    )
    return sigma1, sigma2


def alexander_order(curve: CurveType, v: int) -> int:
    """Order of (t-1)(t^w-1)^(b-1)(t^b-1)^(a-1) at a primitive v-th root of
    unity (t^n - 1 has simple roots, and vanishes there iff v divides n)."""
    return (
        (v == 1)
        + (curve.b - 1) * (curve.w % v == 0)
        + (curve.a - 1) * (curve.b % v == 0)
    )


def _support(curve: CurveType) -> Tuple[int, int, int, Set[int]]:
    """D = lcm(w, b), D/w, D/b and the numerators over D of all x in (0, 1)
    of the form p/w or q/b."""
    denominator = math.lcm(curve.w, curve.b)
    step_w, step_b = denominator // curve.w, denominator // curve.b
    support = {*range(step_w, denominator, step_w), *range(step_b, denominator, step_b)}
    return denominator, step_w, step_b, support


def spectrum_at_infinity_table(curve: CurveType) -> SpectrumMultiset:
    """The spectrum at infinity by the closed-form multiplicity table."""
    a, b, w = curve.a, curve.b, curve.w
    denominator, step_w, step_b, support = _support(curve)
    entries: Dict[int, int] = {denominator: a + b - 1}
    for n in support:
        p, p_rest = divmod(n, step_w)
        q, q_rest = divmod(n, step_b)
        if not p_rest and not q_rest:
            low = p * b // w + q * a // b - 1
            high = a + b - 1 - p * b // w - q * a // b
        elif not p_rest:
            low = p * b // w
            high = b - 1 - p * b // w
        else:
            low = q * a // b
            high = a - 1 - q * a // b
        entries[n] = low
        entries[n + denominator] = high
    return SpectrumMultiset(entries, denominator)


def spectrum_at_infinity_derived(curve: CurveType) -> SpectrumMultiset:
    """The spectrum at infinity recovered from signatures and root orders.

    For x in (0, 1) with exp(2*pi*i*x) a root, the multiplicity of x is
    (order + sigma)/2 and that of 1 + x is (order - sigma)/2, where sigma is
    the total equivariant signature at x.  1 itself has multiplicity a+b-1.
    """
    a, b = curve.a, curve.b
    sigma1, sigma2 = signature_profile(curve)
    denominator, step_w, step_b, support = _support(curve)
    entries: Dict[int, int] = {denominator: a + b - 1}
    for n in support:
        sigma = 0
        if n % step_w == 0:
            sigma += sigma1[n // step_w - 1]
        if n % step_b == 0:
            sigma += sigma2[n // step_b - 1]
        # x = n/D reduces to a fraction with denominator D / gcd(n, D).
        order = alexander_order(curve, denominator // math.gcd(n, denominator))
        if (order + sigma) % 2 != 0:
            raise InternalConsistencyError(
                f"order {order} and signature {sigma} at "
                f"x = {Fraction(n, denominator)} have different parity"
            )
        low = (order + sigma) // 2
        high = (order - sigma) // 2
        if low < 0 or high < 0:
            raise InternalConsistencyError(
                f"negative multiplicity at x = {Fraction(n, denominator)}: "
                f"low={low}, high={high}"
            )
        entries[n] = low
        entries[n + denominator] = high
    return SpectrumMultiset(entries, denominator)


class SemicontinuityWitness(NamedTuple):
    """A point x where one of the two interval inequalities fails."""

    x: Fraction
    cusp_inside: int
    infinity_inside: int
    cusp_outside: int
    infinity_outside: int


class SemicontinuityReport(NamedTuple):
    witnesses: Tuple[SemicontinuityWitness, ...]
    checked_points: int

    @property
    def obstructed(self) -> bool:
        return bool(self.witnesses)

    @property
    def verdict(self) -> str:
        return "obstructed" if self.obstructed else "passes"


@lru_cache(maxsize=1)
def _infinity_numerators(curve: CurveType) -> Tuple[int, Tuple[int, ...]]:
    """(lcm(w, b), the spectrum at infinity as sorted numerators over it),
    one entry per unit of multiplicity."""
    spectrum = spectrum_at_infinity_table(curve)
    numerators: List[int] = []
    for n, mult in spectrum.numerator_entries():
        numerators += [n] * mult
    return spectrum.denominator, tuple(numerators)


def _count_open(values: List[int], lo: int, hi: int) -> int:
    """How many entries of the sorted list `values` lie strictly inside (lo, hi)."""
    return bisect.bisect_left(values, hi) - bisect.bisect_right(values, lo)


def semicontinuity_check(
    curve: CurveType, config: CuspConfiguration
) -> SemicontinuityReport:
    """Evaluate both interval inequalities at every scan point in (0, 1).

    The scan points are the critical points off the spectrum at infinity and
    the midpoints of consecutive critical points, where the critical points
    are the v and v - 1 in (0, 1) for v a value of any spectrum involved.
    Both interval counts are step functions of x changing only at critical
    points, so the midpoints represent every open interval between changes.
    """
    config.require_genus_compatible(curve)
    denominator, infinity_numerators = _infinity_numerators(curve)
    # Every value below is a numerator over `scale` (L in the module
    # docstring).  All of them are even, so midpoints are integers too.
    scale = 2 * math.lcm(denominator, *(cusp.r * cusp.s for cusp in config))
    cusp_values: List[int] = []
    for cusp in config:
        factor = scale // (cusp.r * cusp.s)
        cusp_values += [n * factor for n in _cusp_numerators(cusp)]
    cusp_values.sort()
    factor = scale // denominator
    infinity = [n * factor for n in infinity_numerators]
    infinity_values = set(infinity)

    critical = sorted({v % scale for v in (*cusp_values, *infinity_values)} - {0})
    points = []
    left = 0
    for right in critical:
        points.append((left + right) // 2)
        if right not in infinity_values:
            points.append(right)
        left = right
    points.append((left + scale) // 2)

    cusp_total, infinity_total = len(cusp_values), len(infinity)
    witnesses = []
    for x in points:
        cusp_inside = _count_open(cusp_values, x, x + scale)
        infinity_inside = _count_open(infinity, x, x + scale)
        cusp_outside = cusp_total - cusp_inside
        infinity_outside = infinity_total - infinity_inside
        if cusp_inside > infinity_inside or cusp_outside > infinity_outside:
            witnesses.append(
                SemicontinuityWitness(
                    Fraction(x, scale),
                    cusp_inside,
                    infinity_inside,
                    cusp_outside,
                    infinity_outside,
                )
            )
    return SemicontinuityReport(tuple(witnesses), len(points))
