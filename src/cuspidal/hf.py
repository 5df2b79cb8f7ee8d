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
v = (2(n + b) - q)/(2q), so the maximum is at the solution nearest v; of
two equally near, which have equal P, the lower s2 (the larger s1) is kept.
The solutions are s2 = rho + k*step with step = b/c and
rho = (n/c)(w/c)^-1 mod step; the nearest, ties down, has
k = -floor((rho - v)/step + 1/2).  So `_presentations` solves the curve's
constants once, then each n with one floor division:

    s2 = rho - floor((q(2rho + step + 1) - 2(n + b)) / (2q*step)) * step.

The same line, read on the lattice of X_e: H2(X_e) = <E, F> with E^2 = -e,
F^2 = 0 and E.F = 1, the curve is C = bE + wF, K = -2E - (e + 2)F, and the
classes are c = K + 2(xE + yF).  A class with c.C = d - 2m exists exactly
when gcd(a, b) divides m + g - 1.  Each presentation (s1, s2) is one such
class, with x = b - s2 and y = (d - 2m - (2x - 2)a + (e + 2)b)/(2b), and
each such class gives a presentation.  As c^2/8 = P(s1, s2) - m, the line
holds the maximal c^2/8 + m.

R, the counting function of the cusps' semigroups, is read off one list,
the fold of the configuration (`curve_elements`).

Every cusp here has one Puiseux pair (r, s), so its semigroup is <r, s>,
whose members are the j*s + k*r with j < r and k >= 0.  Its conductor is
2*delta = (r - 1)(s - 1): the delta gaps all lie below it, so [0, 2*delta]
holds delta + 1 elements and the semigroup contains every t >= 2*delta.

The counting function R_S(t) = #(S intersect [0, t)) has unit steps, so it
is fixed by the increasing list e of the elements of S: R_S(t) is the number
of e[v] < t.  For a configuration, R is the infimum convolution
R(t) = min_k R1(k) + R2(t - k), and R(t) <= v holds iff t <= e1[p] + e2[q]
for some p + q = v.  So R is the counting function of the list

    e[v] = max_{p + q = v} e1[p] + e2[q],

the max-plus convolution of the element lists, with (0,) as its neutral
element.  Past its conductor an element list grows by exactly 1 per index,
so moving a split beyond one list's end back to that end lowers that term by
1 per step and raises the other by at least 1: the splits
p in [max(0, v - delta2), min(v, delta1)] suffice, and the result ends at
2*(delta1 + delta2).  Folding a configuration of total delta g therefore gives
g + 1 elements ending at 2g, and R(t) is `bisect_left(elements, t)` for
t <= 2g and t - g beyond.

`_fold` adds one cusp to a fold.  Folding into (0,), the neutral element,
is the cusp's own list, so a cusp on its own costs no convolution.
`curve_elements` folds a configuration from (0,); no per-cusp data and no
fold outlives a call.  `enumeration.filter_verdicts` keeps the one stack of
prefix folds: over a listing, it folds only the cusps past the prefix that
a configuration shares with the one before.

One scan, `_violations`, in increasing m.  `_witnesses` checks the genus,
folds the configuration and hands back the scan over `_p_max_line`:
`hf_check` collects every violated presentation as an `HfWitness`, and the
CLI's `check` writes them as rows as they come.  `enumeration.filter_verdicts`
scans each of its folds and stops at the first.  Both records are `core`'s
idiom, and `HfReport` has `core`'s verdict rule, as `SemicontinuityReport` has.

Two maps of the type keep every m, R(m + g) and maximal P.  (a + b, b, e - 2)
has the same d, g and c and w - b for w, so (s1, s2) maps to (s1 + s2, s2),
and P keeps its value as s2(s2 + 1) moves from the e-term to the first.  On
X_0, swapping a and b swaps s1 and s2, and P = (s1 + 1)(s2 + 1) is symmetric.

`_p_max_line` is `_presentations` over the m with c | m + g - 1, lazily:
`_witnesses` reads it once per call and never holds it; `filter_verdicts`
holds it once per curve.  `max_p_over_presentations` reads one entry.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain
from numbers import Rational
from operator import add

from .core import CurveType, CuspConfiguration, PuiseuxCusp, _Verdict


def _cusp_elements(cusp: PuiseuxCusp) -> tuple[int, ...]:
    """The delta + 1 elements of <r, s> in [0, 2*delta], in increasing order.

    They are the r progressions range(j*s, 2*delta + 1, r), j < r, merged:
    the j*s are distinct mod r, so no element is in two of them.
    """
    r, s, top = cusp.r, cusp.s, 2 * cusp.delta + 1
    return tuple(sorted(chain.from_iterable(range(j * s, top, r) for j in range(r))))


def _max_plus(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
    """v -> max_{p + q = v} e1[p] + e2[q] over the splits inside both lists."""
    if len(e1) < len(e2):  # for speed only: no slice is longer than e2
        e1, e2 = e2, e1
    d2 = len(e2) - 1
    # e2 reversed: e2[v - p] is r2[d2 - v + p].  The splits start at
    # p = max(v - d2, 0), where r2 starts at max(d2 - v, 0), and `map` stops
    # at the shorter slice, at p = min(v, len(e1) - 1).
    r2 = e2[::-1]
    return tuple([
        max(map(add, e1[v - d2 if v > d2 else 0 : v + 1], r2[d2 - v if v < d2 else 0 :]))
        for v in range(len(e1) + d2)
    ])


def _fold(elements: tuple[int, ...], cusp: PuiseuxCusp) -> tuple[int, ...]:
    """`elements` with `cusp` folded in: into (0,), the neutral element, the
    cusp's own list, so a cusp on its own costs no convolution."""
    own = _cusp_elements(cusp)
    return _max_plus(elements, own) if elements != (0,) else own


def curve_elements(curve: CurveType, config: CuspConfiguration) -> tuple[int, ...]:
    """The g + 1 elements, ending at 2g, whose counting function is R.

    R(t) is the number of elements below t for t <= 2g and t - g beyond.
    """
    config.require_genus_compatible(curve)
    return reduce(_fold, config, (0,))


class HfWitness(namedtuple("HfWitness", "m s1 s2 r_value p_value")):
    """A violated presentation, five ints: R(m + g) = r_value < p_value = P(s1, s2)."""

    __slots__ = ()


class HfReport(_Verdict, namedtuple("HfReport", "witnesses")):
    """The tuple of every `HfWitness`, in increasing m."""

    __slots__ = ()


def p_bound(s1: int, s2: int, e: int) -> int:
    """(s1+1)(s2+1) + s2(s2+1)e/2, an exact integer for all arguments."""
    return (s1 + 1) * (s2 + 1) + s2 * (s2 + 1) // 2 * e


def _presentations(curve: CurveType, ms: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """(m, s1, s2, P) of the maximal presentation of n = m + g - 1, c | n, for
    each m of `ms`, lazily, from the curve's constants solved once (module docstring)."""
    b, w, e, c, g = curve.b, curve.w, curve.e, curve.c, curve.g
    step, q = b // c, curve.d // b
    inverse, span = pow(w // c, -1, step), 2 * q * step
    for m in ms:
        n = m + g - 1
        residue = n // c * inverse % step
        s2 = residue - (q * (2 * residue + step + 1) - 2 * (n + b)) // span * step
        s1 = (n - s2 * w) // b
        yield m, s1, s2, p_bound(s1, s2, e)


def max_p_over_presentations(curve: CurveType, n: int) -> tuple[int, int, int] | None:
    """The presentation s1*b + s2*w = n maximizing P, or None if c does not divide n:
    the one nearest the vertex of P, of two equally near the larger s1."""
    return None if n % curve.c else next(_presentations(curve, [n - curve.g + 1]))[1:]


def _p_max_line(curve: CurveType) -> Iterator[tuple[int, int, int, int]]:
    """`_presentations` of every m in [-g, g] that has a presentation, the m
    with c | m + g - 1, in increasing m, lazily."""
    g = curve.g
    return _presentations(curve, range(1 % curve.c - g, g + 1, curve.c))


def _violations(
    line: Iterable[tuple[int, int, int, int]], g: int, elements: tuple[int, ...]
) -> Iterator[tuple[int, int, int, int, int]]:
    """(m, s1, s2, R(m + g), P) of every violated entry of `_p_max_line`,
    given the configuration's fold, in increasing m, lazily."""
    for m, s1, s2, p in line:
        r_value = bisect_left(elements, m + g)
        if r_value < p:
            yield m, s1, s2, r_value, p


def _witnesses(
    curve: CurveType, config: CuspConfiguration
) -> Iterator[tuple[int, int, int, int, int]]:
    """The genus check and the fold, then `_violations` of the curve's
    `_p_max_line`, lazily."""
    elements = curve_elements(curve, config)
    return _violations(_p_max_line(curve), curve.g, elements)


def hf_check(curve: CurveType, config: CuspConfiguration) -> HfReport:
    """Scan all m in [-g, g] and collect every violated presentation."""
    return HfReport(tuple(map(HfWitness._make, _witnesses(curve, config))))


def multiplicity_bound_check(curve: CurveType, cusp: PuiseuxCusp) -> bool:
    """True iff the cusp multiplicity r is at most b.

    This is the specialization s1 = 1, s2 = 0 of the full scan: a cusp with
    r > b has no semigroup element in (0, b + 1), forcing R(b + 1) = 1 < 2.
    """
    return cusp.r <= curve.b


def d_invariant(curve: CurveType, config: CuspConfiguration, m: int) -> Rational:
    """The correction term of the boundary of the curve neighbourhood.

    d = -[((d - 2m)^2 - d) / (4d) - 2(R(m + g) - m)], exact, for
    m in [-d/2, d/2).  Checks m's range before the fold, which can take
    seconds.
    """
    _check_m(curve, m)
    from fractions import Fraction

    return Fraction(_d_invariant(curve, curve_elements(curve, config), m), 4 * curve.d)


def _check_m(curve: CurveType, m: int) -> None:
    """Raise unless m lies in [-d/2, d/2), the range of `d_invariant`."""
    d = curve.d
    if not (-d <= 2 * m < d):
        raise ValueError(f"m must lie in [-{d}/2, {d}/2), got {m}")


def _d_invariant(curve: CurveType, elements: tuple[int, ...], m: int) -> int:
    """`d_invariant` scaled by 4d, the integer 8d(R(m + g) - m) - (d - 2m)^2 + d,
    given the configuration's fold, for an m its caller checked."""
    d, g = curve.d, curve.g
    t = m + g
    r_value = bisect_left(elements, t) if t <= 2 * g else t - g
    return 8 * d * (r_value - m) - (d - 2 * m) ** 2 + d
