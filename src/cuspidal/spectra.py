"""Spectra as exact multisets of rationals, held as int numerators.

Both constructions of the spectrum at infinity (the closed-form table, and
the route through equivariant signatures and the Alexander polynomial)
return the pair (D, entries): the denominator D = lcm(w, b), and the
(numerator n, multiplicity) of each value n/D in increasing order of n,
without zero multiplicities.  The values below 1 lie on two progressions:
x = p/w at the numerators range(D/w, D, D/w) and x = q/b at
range(D/b, D, D/b).  Each construction zips its p-row and its q-row onto
them and combines the two where they meet.  No construction makes a
`Fraction`; error messages and reported witness points do.

The cusp spectrum is read off the semigroup <r, s>, and only inside `_scan`.
A cusp (r, s) has the values (i*s + j*r)/(r*s), 1 <= i < r, 1 <= j < s.
These numerators are distinct, since r divides (i - i')*s only for i = i',
so every multiplicity is 1.  Those below r*s are exactly e + r + s for the
delta elements e of <r, s> below the conductor 2*delta = r*s - r - s + 1:
such an e is (i - 1)*s + (j - 1)*r with i < r and j >= 1, and
e + r + s <= r*s forces j < s and excludes r*s itself; conversely
i*s + j*r - r - s < 2*delta is an element.  The symmetry
(i, j) -> (r - i, s - j) maps the rest onto 2*r*s - n.

The spectrum at infinity is symmetric about 1 too: mult(2 - x) = mult(x)
for x in (0, 1) in the table below.  At x = p/w alone (w does not divide
p*b, or x would be q/b), 2 - x has p' = w - p and multiplicity
b - 1 - floor(p'*b/w) = ceil(p*b/w) - 1 = floor(p*b/w).  At x = q/b alone,
b does not divide q*a (or x = (q*a/b + q*e)/w), and the same steps give
floor(q*a/b).  At x = p/w = q/b, p = q*a/b + q*e makes q*a/b an integer,
and both multiplicities are q + q*a/b - 1.

The semicontinuity check compares the cusp spectra against the spectrum at
infinity on the open unit intervals (x, x + 1), x in (0, 1): it fails at x
if the cusps have more values inside than infinity has, or more outside.
Both counts change only at the critical points, the v and v - 1 in (0, 1)
for v a value of any spectrum involved.  The scan points are the midpoints
of consecutive critical points (with 0 and 1 as ends), which stand for the
open stretches between them, and the critical points that are not values
of the spectrum at infinity.

Fold.  For a spectrum symmetric about 1 and x in (0, 1), the values in
(x, x + 1) are those in (x, 1), the value 1, and those in (1, 1 + x), which
v -> 2 - v maps onto (1 - x, 1).  So the count inside is

    #{l < 1 : l > x} + mult(1) + #{l < 1 : l > 1 - x},

the same at x and at 1 - x, and so is the count outside, the total minus
it.  Every spectrum here is symmetric, so whether x fails depends on
min(x, 1 - x) only, and the scan evaluates the counts at the folded points
min(x, 1 - x) in (0, 1/2] of its scan points, with four bisections of the
sorted values below 1 each.  It runs from 1/2 down: failures crowd towards
1/2, and most obstructed configurations fail at one of the first three
points.

The critical points are symmetric under x -> 1 - x, and so are the
midpoints, but the scan points need not be.  For x <= 1/2 the multiplicity
of x at infinity is at most that of 1 - x: the table gives floor(x*b) at
x = p/w alone, floor(x*a) at x = q/b alone and x*b + x*a - 1 at both, each
nondecreasing in x, and 1 - x has the form of x.  So the mirror of a value
at infinity in (0, 1/2] is a value at infinity, but not conversely: for
(0, 5, 2) with cusps (2, 3), (3, 4), (4, 9), 1/5 is a scan point and a
witness, while 4/5, a value at infinity, is not scanned.  Hence the mirror
of every scan point above 1/2 is a scan point, and the folded points are
the scan points in (0, 1/2].  A folded point y stands for y, and for 1 - y
too if that is not a value at infinity.  (A midpoint never is one, since
every value below 1 is critical.)

The scan runs on integers: with L = 2 * lcm(w, b, r_1*s_1, ...) all
values, the scan points and the midpoints between them are integer
multiples of 1/L, and counts are bisections of sorted int lists.  Cusp
counts add up, so all cusps share one list: the values (r + s + e)/(r*s)
below 1, read off the element lists.  One scan, `_scan`, has two
kinds of consumer: `semicontinuity_check` unfolds every failing point into
its witnesses, and `enumeration.filter_verdicts` stops at the first and
builds no witness and no `Fraction`.

The scan reads the spectrum at infinity's values below 1, as numerators
over lcm(w, b), and its multiplicity of 1 off `_infinity_numerators`, built
per check and per curve in `filter_verdicts`; and each cusp's element list off
`semigroups._cusp_elements`, the one per-cusp memo, which the HF check reads
too.  Neither construction of the spectrum at infinity is memoised.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat
from operator import add, mul
from typing import Callable, Dict, Iterator, List, NamedTuple, Set, Tuple

from .core import CurveType, CuspConfiguration
from .semigroups import _cusp_elements


class InternalConsistencyError(RuntimeError):
    """The signature/order data failed an integrality guarantee."""


# (D, the sorted (numerator over D, multiplicity) pairs): module docstring.
Spectrum = Tuple[int, Tuple[Tuple[int, int], ...]]


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


def spectrum_at_infinity_table(curve: CurveType) -> Spectrum:
    """The spectrum at infinity by the closed-form multiplicity table."""
    a, b, w = curve.a, curve.b, curve.w
    denominator = math.lcm(w, b)
    entries: Dict[int, int] = {denominator: a + b - 1}
    step = denominator // w
    for n, p in zip(range(step, denominator, step), range(1, w)):
        entries[n] = p * b // w
        entries[n + denominator] = b - 1 - p * b // w
    step = denominator // b
    for n, q in zip(range(step, denominator, step), range(1, b)):
        low, high = q * a // b, a - 1 - q * a // b
        if n in entries:  # x = p/w = q/b: (sum - 1, a + b - 1 - sum)
            low += entries[n] - 1
            high += entries[n + denominator] + 1
        entries[n] = low
        entries[n + denominator] = high
    return denominator, tuple(sorted(item for item in entries.items() if item[1]))


def spectrum_at_infinity_derived(curve: CurveType) -> Spectrum:
    """The spectrum at infinity recovered from signatures and root orders.

    For x in (0, 1) with exp(2*pi*i*x) a root, the multiplicity of x is
    (order + sigma)/2 and that of 1 + x is (order - sigma)/2, where sigma is
    the total equivariant signature at x.  1 itself has multiplicity a+b-1.
    """
    a, b, w = curve.a, curve.b, curve.w
    sigma1, sigma2 = signature_profile(curve)
    denominator = math.lcm(w, b)
    step = denominator // w
    sigmas = dict(zip(range(step, denominator, step), sigma1))
    step = denominator // b
    for n, sigma in zip(range(step, denominator, step), sigma2):
        sigmas[n] = sigmas.get(n, 0) + sigma  # x = p/w = q/b: the two add
    entries: Dict[int, int] = {denominator: a + b - 1}
    for n, sigma in sigmas.items():
        # x = n/D reduces to a fraction with denominator D / gcd(n, D).
        order = alexander_order(curve, denominator // math.gcd(n, denominator))
        if (order + sigma) % 2 != 0:
            from fractions import Fraction
            raise InternalConsistencyError(
                f"order {order} and signature {sigma} at "
                f"x = {Fraction(n, denominator)} have different parity"
            )
        low = (order + sigma) // 2
        high = (order - sigma) // 2
        if low < 0 or high < 0:
            from fractions import Fraction
            raise InternalConsistencyError(
                f"negative multiplicity at x = {Fraction(n, denominator)}: "
                f"low={low}, high={high}"
            )
        entries[n] = low
        entries[n + denominator] = high
    return denominator, tuple(sorted(item for item in entries.items() if item[1]))


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


def _infinity_numerators(curve: CurveType) -> Tuple[int, Tuple[int, ...], int]:
    """(D = lcm(w, b), the values below 1 of the spectrum at infinity as
    sorted numerators over D, one per unit of multiplicity, and the
    multiplicity of 1)."""
    denominator, entries = spectrum_at_infinity_table(curve)
    low: List[int] = []
    for n, mult in entries:
        if n >= denominator:
            break
        low += [n] * mult
    # The values above 1 mirror those below it (module docstring), and 1 is on
    # neither progression, so its multiplicity is the table's a + b - 1.
    return denominator, tuple(low), curve.a + curve.b - 1


def _scan(
    infinity: Tuple[int, Tuple[int, ...], int], config: CuspConfiguration
) -> Tuple[
    int,
    Set[int],
    Callable[[], Iterator[int]],
    Iterator[Tuple[int, int, int, int, int]],
]:
    """The folded scan (module docstring) of a configuration with cusps.

    Returns L; the values below 1 of the spectrum at infinity, as a set of
    numerators over L; a function listing the folded points, the scan points
    y in (0, L/2], in decreasing order; and, lazily in the same order, every
    failing one as (y, cusp inside, infinity inside, cusp outside, infinity
    outside).
    """
    denominator, infinity_low, mult_one = infinity
    scale = 2 * math.lcm(denominator, *(cusp.r * cusp.s for cusp in config))
    half = scale // 2
    cusps: List[int] = []
    for cusp in config:
        r, s = cusp.r, cusp.s
        low = _cusp_elements(cusp)[:-1]
        cusps += map(mul, map(add, low, repeat(r + s)), repeat(scale // (r * s)))
    cusps.sort()
    infinity = list(map(mul, infinity_low, repeat(scale // denominator)))
    at_infinity = set(infinity)
    # The critical points in (0, 1/2], from the top; the others mirror them.
    critical = sorted(
        {v if v <= half else scale - v for v in (*cusps, *at_infinity)}, reverse=True
    )

    def points() -> Iterator[int]:
        if critical[:1] != [half]:
            yield half  # the midpoint of the two critical points nearest 1/2
        for right, left in zip(critical, [*critical[1:], 0]):
            if right not in at_infinity:
                yield right
            yield (left + right) // 2

    cusp_total = 2 * len(cusps)
    infinity_total = 2 * len(infinity) + mult_one

    def failing() -> Iterator[Tuple[int, int, int, int, int]]:
        for y in points():
            mirror = scale - y
            cusp_inside = (
                cusp_total - bisect_right(cusps, y) - bisect_right(cusps, mirror)
            )
            infinity_inside = (
                infinity_total
                - bisect_right(infinity, y)
                - bisect_right(infinity, mirror)
            )
            cusp_outside = cusp_total - cusp_inside
            infinity_outside = infinity_total - infinity_inside
            if cusp_inside > infinity_inside or cusp_outside > infinity_outside:
                yield y, cusp_inside, infinity_inside, cusp_outside, infinity_outside

    return scale, at_infinity, points, failing()


def semicontinuity_check(
    curve: CurveType, config: CuspConfiguration
) -> SemicontinuityReport:
    """Evaluate both interval inequalities at every scan point in (0, 1).

    The scan points are the critical points off the spectrum at infinity and
    the midpoints of consecutive critical points, where the critical points
    are the v and v - 1 in (0, 1) for v a value of any spectrum involved.
    Both interval counts are step functions of x changing only at critical
    points, so the midpoints represent every open interval between changes.
    Each folded point y of the scan stands for y, and for 1 - y too if that
    is not a value at infinity (module docstring).  No cusps (genus 0): no
    point can fail, and `checked_points` is 0.
    """
    config.require_genus_compatible(curve)
    if not config:
        return SemicontinuityReport((), 0)
    scale, at_infinity, points, failing = _scan(_infinity_numerators(curve), config)
    half = scale // 2

    def mirrored(y: int) -> bool:
        """Whether 1 - y is a scan point other than y."""
        return y != half and scale - y not in at_infinity

    checked = sum(1 + mirrored(y) for y in points())
    found = list(failing)
    if not found:  # no witness, so no `fractions` import
        return SemicontinuityReport((), checked)
    from fractions import Fraction

    witnesses = [
        SemicontinuityWitness(Fraction(y, scale), *counts)
        for y, *counts in reversed(found)
    ]
    witnesses += [
        SemicontinuityWitness(Fraction(scale - y, scale), *counts)
        for y, *counts in found
        if mirrored(y)
    ]
    return SemicontinuityReport(tuple(witnesses), checked)

