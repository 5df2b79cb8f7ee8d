"""Cusp semigroups as element lists, and the combined counting function R.

Every cusp here has one Puiseux pair (r, s), so its semigroup is <r, s> and
is built in closed form: t is a member iff t - j*s is a nonnegative multiple
of r for some j < r.  Its conductor is 2*delta = (r - 1)(s - 1): the delta
gaps all lie below it, so [0, 2*delta] holds delta + 1 elements and the
semigroup contains every t >= 2*delta.

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

Memoised: the element list of each cusp by cusp value (`_cusp_elements`,
the last 1024 cusps), so configurations that share a cusp build it once;
and the folds of every prefix of the most recent configuration
(`curve_elements`), so a configuration that shares its first k cusps with
the one before it folds only the rest.  `enumerate` lists configurations in
depth-first order, so the leaves under one prefix fold that prefix once,
and the checks of one configuration, such as every m of `dinv --all-m`,
fold once.  `_cusp_elements` is the one per-cusp memo of both filters: the
spectrum filter reads the cusp spectrum off the same list, since its values
below 1 are (r + s + e)/(r*s) for the delta elements e below 2*delta (see
`spectra`).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import List, NamedTuple, Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp


@lru_cache(maxsize=1024)
def _cusp_elements(cusp: PuiseuxCusp) -> Tuple[int, ...]:
    """The delta + 1 elements of <r, s> in [0, 2*delta], in closed form.

    The only j < r with t - j*s divisible by r is j = t * s^-1 mod r, so t
    is a member iff that j has j*s <= t.
    """
    r, s = cusp.r, cusp.s
    inverse = pow(s, -1, r)
    return tuple(t for t in range(2 * cusp.delta + 1) if t * inverse % r * s <= t)


def _max_plus(e1: Tuple[int, ...], e2: Tuple[int, ...]) -> Tuple[int, ...]:
    """v -> max_{p + q = v} e1[p] + e2[q] over the splits inside both lists."""
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    d1, d2 = len(e1) - 1, len(e2) - 1
    # e2 reversed: e2[v - p] for p = lo .. hi is a slice of it.  The splits
    # are p in [0, v] while v < d2, then [v - d2, v] up to v = d1, then
    # [v - d2, d1].
    r2 = e2[::-1]
    return (
        *[max(map(add, e1[: v + 1], r2[d2 - v :])) for v in range(d2)],
        *[max(map(add, e1[v - d2 : v + 1], r2)) for v in range(d2, d1 + 1)],
        *[
            max(map(add, e1[v - d2 :], r2[: d1 + d2 + 1 - v]))
            for v in range(d1 + 1, d1 + d2 + 1)
        ],
    )


class _CacheInfo(NamedTuple):
    hits: int
    misses: int


class _PrefixFolds:
    """The fold of a configuration, memoised by prefix: `curve_elements`."""

    def __init__(self) -> None:
        self.cache_clear()

    def cache_clear(self) -> None:
        # _folds[k] is the fold of the first k cusps of the most recent
        # configuration, _cusps; _folds[0] is the neutral (0,).
        self._cusps: List[PuiseuxCusp] = []
        self._folds: List[Tuple[int, ...]] = [(0,)]
        self._hits = self._misses = 0

    def cache_info(self) -> _CacheInfo:
        """A call is a hit when it asks for the most recent configuration."""
        return _CacheInfo(self._hits, self._misses)

    def __call__(self, curve: CurveType, config: CuspConfiguration) -> Tuple[int, ...]:
        """The g + 1 elements, ending at 2g, whose counting function is R.

        R(t) is the number of elements below t for t <= 2g and t - g beyond.
        """
        config.require_genus_compatible(curve)
        cusps, folds = self._cusps, self._folds
        shared = 0
        for held, cusp in zip(cusps, config):
            if held != cusp:
                break
            shared += 1
        if shared == len(cusps) == len(config):
            self._hits += 1
            return folds[-1]
        self._misses += 1
        del cusps[shared:], folds[shared + 1 :]
        for cusp in config[shared:]:
            elements = _cusp_elements(cusp)
            folds.append(_max_plus(folds[-1], elements) if cusps else elements)
            cusps.append(cusp)
        return folds[-1]


curve_elements = _PrefixFolds()
