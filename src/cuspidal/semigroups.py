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
and the folds of the most recent configuration's prefixes, in two lists:
its cusps, `_cusps`, and `_folds`, where `_folds[k]` folds the first k.
`curve_elements` compares a configuration with `_cusps`, truncates both
lists to the k cusps they share, and folds the rest: one `_max_plus` per
cusp past the first max(k, 1), none for the most recent configuration.
Prefixes are compared by value, so lists left by another curve are only
not reused.  `enumerate` lists configurations in depth-first order, so the
leaves under one prefix fold it once, and so do the checks of one
configuration, such as every m of `dinv --all-m`.  One lock guards both
lists, so threads that call `curve_elements` at once never fold onto each
other's prefix.  `_cusp_elements` is the one per-cusp memo of both
filters: the spectrum filter reads the cusp spectrum off the same list,
since its values below 1 are (r + s + e)/(r*s) for the delta elements e
below 2*delta (see `spectra`).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from operator import add
from typing import List, Tuple

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


_cusps: List[PuiseuxCusp] = []
_folds: List[Tuple[int, ...]] = [(0,)]
_lock = threading.Lock()


def curve_elements(curve: CurveType, config: CuspConfiguration) -> Tuple[int, ...]:
    """The g + 1 elements, ending at 2g, whose counting function is R.

    R(t) is the number of elements below t for t <= 2g and t - g beyond.
    """
    config.require_genus_compatible(curve)
    with _lock:
        shared = 0
        for held, cusp in zip(_cusps, config):
            if held != cusp:
                break
            shared += 1
        del _cusps[shared:], _folds[shared + 1 :]
        for cusp in config[shared:]:
            elements = _cusp_elements(cusp)
            _folds.append(_max_plus(_folds[-1], elements) if _cusps else elements)
            _cusps.append(cusp)
        return _folds[-1]
