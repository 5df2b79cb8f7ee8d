"""Spectra as exact multisets of rationals, held as int numerators.

Both constructions of the spectrum at infinity (the closed-form table, and
the route through equivariant signatures and the Alexander polynomial)
return the pair (D, entries): the denominator D = lcm(w, b), and the
(numerator n, multiplicity) of each value n/D in increasing order of n,
without zero multiplicities.  The values below 1 lie on two progressions:
x = p/w at the numerators range(D/w, D, D/w) and x = q/b at
range(D/b, D, D/b).  Each construction lays its p-row and its q-row onto
them, combines the two where they meet, and sorts the values below 1.  No
construction makes a `Fraction`; error messages and reported witness points do.

Root orders.  At x = n/D in (0, 1), v = D/gcd(n, D) > 1, and v | w iff
D | w*gcd(n, D) iff D/w divides gcd(n, D), that is n; likewise v | b iff
D/b | n.  So `alexander_order(curve, v)`, (b - 1)[v | w] + (a - 1)[v | b], is
b - 1 on the p-row, a - 1 on the q-row and their sum where they meet: the
derived route takes the order from the rows, and `src` never calls it.

The cusp spectrum is read off (r, s), and only inside `_scan`.  A cusp
(r, s) has the values (i*s + j*r)/(r*s), 1 <= i < r, 1 <= j < s.  These
numerators are distinct, since r divides (i - i')*s only for i = i', so
every multiplicity is 1, and (i, j) -> (r - i, s - j) maps the values below
1 onto those above.

The table gives 1 the multiplicity a + b - 1, x = p/w alone (w does not divide
p*b, or x would be q/b) floor(p*b/w), x = q/b alone floor(q*a/b), x on both
their sum - 1, and each 1 + x the order at x less mult(x).  It is symmetric
about 1 too: mult(2 - x) = mult(x) for x in (0, 1).  At x = p/w alone, 2 - x
has p' = w - p and multiplicity b - 1 - floor(p'*b/w) = ceil(p*b/w) - 1 =
floor(p*b/w).  At x = q/b alone, b does not divide q*a, or x would be
(q*a/b + q*e)/w, and the same steps give floor(q*a/b).  At x = p/w = q/b,
p = q*a/b + q*e makes q*a/b an integer; both multiplicities are q + q*a/b - 1.
So the table computes the values below 1 and mirrors them; the derived route
works out each 1 + x on its own, and `--method both` checks the mirror.

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
min(x, 1 - x) in (0, 1/2] of its scan points.

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

Sweep.  With L = 2 * lcm(w, b, r_1*s_1, ...) all values, scan points and
midpoints are integer multiples of 1/L.  A value v below 1 is one code
4f + kind, f = min(v, L - v): kind 0 for a cusp value and 1 for a value at
infinity v <= L/2, 2 for one at infinity and 3 for a cusp value above; one
sorted list holds them all, two `range`s per cusp and i.  As v > L/2 lies
above L - y just when f < y, with n cusp values and n' at infinity below 1
the counts inside at y are n - #{kind 0, f <= y} + #{kind 3, f < y} and
n' + mult(1) - #{kind 1, f <= y} + #{kind 2, f < y}.  A walk up the codes
keeps both running, a walk down from 1/2 undoes them, and each tests a gap
between neighbouring codes once: the counts there hold at each y whose
code 4y + 1 lies strictly inside, their midpoint if their f differ (no f
equals it, so <= and < agree), and an f with kind 0 below, 2 and 3 above.
So a value at infinity f, at 4f + 1, leaves no point f; 4f + 2 right above
marks 1 - f as one, which f does not stand for.  The ends, as values at
infinity: 1 (f = 0), and L - f for the highest f, their midpoint 1/2.

Order.  So the witnesses in increasing order are the failing folded points
y from 0 up, then the 1 - y > 1/2 they stand for from 1/2 down.  `_scan`
walks the codes up and then down, for `semicontinuity_check` and the CLI's
`check`, and holds no witness.  The walk down fails at the same points, so
it stops at the gap of the lowest failing y, at once if none failed.
`enumeration.filter_verdicts` reads the first failing y from 1/2 down, where
failures crowd (most obstructed configurations fail at one of the first
three points), and builds no witness and no `Fraction`.  Both records are
`core`'s idiom, and `SemicontinuityReport` has `core`'s verdict rule.

Count.  The folded critical points hold each pair {x, 1 - x} once, so there
are C = 2k - [1/2 is critical] critical points in (0, 1) for k folded ones.
They cut (0, 1) into C + 1 open stretches, one midpoint each, and every one
of the A distinct values at infinity below 1 is critical, so C - A of them
are scan points: 2C + 1 - A in all, and the scan counts no point to know it.

The scan reads `_table_below_one`, built per check and per curve in
`filter_verdicts`: the sorted (numerator over lcm(w, b), multiplicity)
pairs below 1, one code each repeated mult times, and mult(1).  Nothing
here is memoised.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import groupby, pairwise, repeat, takewhile
from operator import itemgetter, rshift

from .core import CurveType, CuspConfiguration, _Verdict


class InternalConsistencyError(RuntimeError):
    """The signature/order data failed an integrality guarantee."""


# (D, the sorted (numerator over D, multiplicity) pairs): module docstring.
Spectrum = tuple[int, tuple[tuple[int, int], ...]]


def signature_profile(curve: CurveType) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Equivariant signatures (sigma1, sigma2) of the two splice components of
    the link at infinity; sigma1[p - 1] is the value at p, sigma2[q - 1] at q:

    sigma1 at p = 2*floor(p*b/w) - (b-1) - delta  for p in [1, w-1],
                  with delta = 1 iff w | p*b;
    sigma2 at q = 2*floor(q*a/b) - (a-1) - delta' for q in [1, b-1],
                  with delta' = 1 iff b | q*a.
    """
    a, b, w = curve.a, curve.b, curve.w
    sigma1 = tuple(2 * (p * b // w) - (b - 1) - (p * b % w == 0) for p in range(1, w))
    sigma2 = tuple(2 * (q * a // b) - (a - 1) - (q * a % b == 0) for q in range(1, b))
    return sigma1, sigma2


def alexander_order(curve: CurveType, v: int) -> int:
    """Order of (t-1)(t^w-1)^(b-1)(t^b-1)^(a-1) at a primitive v-th root of
    unity (t^n - 1 has simple roots, and vanishes there iff v divides n)."""
    b, w = curve.b, curve.w
    return (v == 1) + (b - 1) * (w % v == 0) + (curve.a - 1) * (b % v == 0)


def _table_below_one(curve: CurveType) -> tuple[int, list[tuple[int, int]], int]:
    """(D, the table's sorted (numerator over D, multiplicity) pairs below 1,
    none of multiplicity 0, the multiplicity of 1, a + b - 1, which is 0
    only for (0, 1, e)).  The p-row starts at ceil(w/b): below it
    floor(p*b/w) is 0, and the rows meet only where it is q >= 1.  For
    a >= 1 the q-row starts at ceil(b/a): below it floor(q*a/b) is 0, and
    the rows meet only where q*a/b is a positive integer.  For a = 0 every
    q/b is on the p-row, which the q-row lowers by 1 from q = 1."""
    a, b, w = curve.a, curve.b, curve.w
    denominator = math.lcm(w, b)
    step = denominator // w
    below = {p * step: p * b // w for p in range(-(-w // b), w)}
    step = denominator // b
    for q in range(-(-b // a) if a else 1, b):  # x = p/w = q/b: the sum - 1
        below[q * step] = below.get(q * step, 1) - 1 + q * a // b
    return denominator, list(filter(itemgetter(1), sorted(below.items()))), a + b - 1


def spectrum_at_infinity_table(curve: CurveType) -> Spectrum:
    """The spectrum at infinity by the closed-form table: its values below 1
    (`_table_below_one`), then 1 unless (a, b) = (0, 1), then their mirrors."""
    denominator, low, mult_one = _table_below_one(curve)
    one = [(denominator, mult_one)] if mult_one else []
    return denominator, (*low, *one, *[(2 * denominator - n, m) for n, m in reversed(low)])


def spectrum_at_infinity_derived(curve: CurveType) -> Spectrum:
    """The spectrum at infinity recovered from signatures and root orders.

    For x in (0, 1) with exp(2*pi*i*x) a root, the multiplicity of x is
    (order + sigma)/2 and that of 1 + x is (order - sigma)/2, for the root
    order and the total equivariant signature at x.  1 has multiplicity a+b-1.
    """
    a, b, w = curve.a, curve.b, curve.w
    sigma1, sigma2 = signature_profile(curve)
    denominator = math.lcm(w, b)
    step = denominator // w
    below = dict(zip(range(step, denominator, step), zip(repeat(b - 1), sigma1)))
    step = denominator // b
    for n, sigma in zip(range(step, denominator, step), sigma2):
        order, other = below.get(n, (0, 0))  # x = p/w = q/b: the two add
        below[n] = (order + a - 1, other + sigma)
    low: list[tuple[int, int]] = []
    high: list[tuple[int, int]] = []
    for n, (order, sigma) in sorted(below.items()):
        mult, mirror = (order + sigma) // 2, (order - sigma) // 2
        if (order + sigma) % 2 or mult < 0 or mirror < 0:
            from fractions import Fraction
            x = Fraction(n, denominator)
            raise InternalConsistencyError(
                f"order {order} and signature {sigma} at x = {x} have different parity"
                if (order + sigma) % 2
                else f"negative multiplicity at x = {x}: low={mult}, high={mirror}"
            )
        if mult:
            low.append((n, mult))
        if mirror:
            high.append((n + denominator, mirror))
    one = [(denominator, a + b - 1)] if a + b > 1 else []
    return denominator, (*low, *one, *high)


class SemicontinuityWitness(namedtuple(
    "SemicontinuityWitness", "x cusp_inside infinity_inside cusp_outside infinity_outside"
)):
    """A failing point x, a `Fraction`, and the four int counts compared there."""

    __slots__ = ()


class SemicontinuityReport(
    _Verdict, namedtuple("SemicontinuityReport", "witnesses checked_points")
):
    """The tuple of every `SemicontinuityWitness` in increasing x, and the int point count."""

    __slots__ = ()


def _scan(
    infinity: tuple[int, list[tuple[int, int]], int], config: CuspConfiguration
) -> tuple[int, Callable[[], int], Iterator[tuple[int, ...]], Iterator[tuple[int, ...]]]:
    """The folded scan (module docstring) of a configuration: L, a function
    that counts the scan points in (0, 1), and two lazy streams of failing
    points (numerator over L, cusp and infinity inside, cusp and infinity
    outside): all in increasing order ("Order"), the folded ones from 1/2 down."""
    denominator, pairs, mult_one = infinity
    scale = 2 * math.lcm(denominator, *(r * s for r, s in config))
    half, unit = scale // 2, scale // denominator
    codes, above = [1], 0  # 0 opens the walk up as a value at infinity would
    for r, s in config:
        k = scale // (r * s)  # so L = r*s*k
        for i in range(1, r):
            values = range((i * s + r) * k, scale, r * k)
            high = values[len(range(values.start, half + 1, r * k)) :]  # above 1/2
            codes += range(4 * values.start, 4 * high.start, 4 * r * k)
            codes += range(4 * (scale - high.start) + 3, 3, -4 * r * k)
            above += len(high)
    cut = below = 0  # the values at infinity up to 1/2, and below 1
    for n, mult in pairs:
        up_to_half = 2 * n <= denominator
        codes += repeat(4 * unit * n + 1 if up_to_half else 4 * (scale - unit * n) + 2, mult)
        cut, below = cut + up_to_half * mult, below + mult
    codes.sort()
    codes.append(4 * (scale - (codes[-1] >> 2)) + 1)  # their midpoint is 1/2
    bottom = config.total_delta, below + mult_one  # the counts at 0
    cusp_total, infinity_total = 2 * config.total_delta, 2 * below + mult_one
    top = 2 * above, infinity_total - 2 * cut  # the counts at 1/2

    def sweep(walk: Iterable[int], cusp: int, inf: int, sign: int) -> Iterator[tuple]:
        # Along `walk`: each point of a failing gap of unequal codes, its codes, the counts.
        for near, code in pairwise(walk):
            if (cusp > inf or cusp_total - cusp > infinity_total - inf) and near != code:
                low, high = sorted((near, code))
                f, g = low >> 2, high >> 2
                for y in sorted({f, (f + g) // 2, g}, reverse=sign < 0):
                    if low < 4 * y + 1 < high:  # a scan point ("Sweep")
                        yield y, low, high, cusp, inf, cusp_total - cusp, infinity_total - inf
            if code & 3 in (1, 2):
                inf += sign * ((code & 2) - 1)
            else:
                cusp += sign * ((code & 2) - 1)

    def count() -> int:
        # C, then 2C + 1 - A ("Count"); equal folded values are neighbours.
        folded = sum(1 for _ in groupby(map(rshift, codes[1:-1], repeat(2))))
        critical = 2 * folded - (codes[-2] >> 2 == half)
        return 2 * critical + 1 - len(pairs)

    def ordered() -> Iterator[tuple[int, ...]]:
        lowest = codes[-1] + 1  # the walk down fails where the walk up did
        for y, low, _, *counts in sweep(codes, *bottom, 1):
            lowest = min(lowest, low)
            yield y, *counts
        for y, _, high, *counts in sweep(takewhile(lowest.__le__, reversed(codes)), *top, -1):
            if y < half and high != 4 * y + 2:
                yield scale - y, *counts

    down = sweep(reversed(codes), *top, -1)
    return scale, count, ordered(), ((y, *counts) for y, _, _, *counts in down)


def _witnesses(
    curve: CurveType, config: CuspConfiguration
) -> tuple[int, Callable[[], int], Iterator[tuple[int, ...]]]:
    """The genus check, then L, the count and the ordered failures of `_scan`."""
    config.require_genus_compatible(curve)
    return _scan(_table_below_one(curve), config)[:3]


def semicontinuity_check(
    curve: CurveType, config: CuspConfiguration
) -> SemicontinuityReport:
    """Evaluate both interval inequalities at every scan point in (0, 1)
    (module docstring); the witnesses are the failing ones in increasing
    order.  No cusps (genus 0): no genus-0 table has a value below 1, so
    1/2 is the only scan point, `checked_points` is 1, and it cannot fail."""
    scale, count, failures = _witnesses(curve, config)
    from fractions import Fraction

    witnesses = (SemicontinuityWitness(Fraction(x, scale), *c) for x, *c in failures)
    return SemicontinuityReport(tuple(witnesses), count())
