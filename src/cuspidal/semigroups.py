"""Cusp semigroups as element lists, and the combined counting function R.

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

The fold starts from the first cusp's list, not from (0,), so a cusp on
its own costs no convolution.

No per-cusp data and no fold outlives a call: `_elements_along` reads a
listing once, builds each cusp's list as the cusp joins its path, yields
each configuration with its fold, keeps the prefix folds as locals and folds
only the cusps past the k it shares with the one before, one `_max_plus` per
cusp past the first max(k, 1): `enumeration.filter_verdicts` folds each
prefix of a depth-first listing once.
"""

from __future__ import annotations

from itertools import chain, takewhile
from operator import add, eq
from typing import Iterable, Iterator, List, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp


def _cusp_elements(cusp: PuiseuxCusp) -> Tuple[int, ...]:
    """The delta + 1 elements of <r, s> in [0, 2*delta], in increasing order.

    They are the r progressions range(j*s, 2*delta + 1, r), j < r, merged:
    the j*s are distinct mod r, so no element is in two of them.
    """
    r, s, top = cusp.r, cusp.s, 2 * cusp.delta + 1
    return tuple(sorted(chain.from_iterable(range(j * s, top, r) for j in range(r))))


def _max_plus(e1: Tuple[int, ...], e2: Tuple[int, ...]) -> Tuple[int, ...]:
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


def _elements_along(
    configs: Iterable[CuspConfiguration],
) -> Iterator[Tuple[CuspConfiguration, Tuple[int, ...]]]:
    """Each configuration in turn with its element list, folding only the
    cusps past the prefix it shares with the configuration before it."""
    cusps: List[PuiseuxCusp] = []
    folds: List[Tuple[int, ...]] = [(0,)]  # folds[k] folds cusps[:k]
    for config in configs:
        shared = len(list(takewhile(bool, map(eq, cusps, config))))
        del cusps[shared:], folds[shared + 1 :]
        for cusp in config[shared:]:
            elements = _cusp_elements(cusp)
            folds.append(_max_plus(folds[-1], elements) if cusps else elements)
            cusps.append(cusp)
        yield config, folds[-1]


def curve_elements(curve: CurveType, config: CuspConfiguration) -> Tuple[int, ...]:
    """The g + 1 elements, ending at 2g, whose counting function is R.

    R(t) is the number of elements below t for t <= 2g and t - g beyond.
    """
    config.require_genus_compatible(curve)
    return next(_elements_along((config,)))[1]
