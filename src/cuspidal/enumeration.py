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
path: it reads the listing once, checks each configuration's genus first,
builds the curve's data at the first configuration that passes that check,
keeps the one stack of prefix folds, so it folds only the cusps past the
prefix shared with the configuration before, and reads each scan
(`hf._violations`, `spectra._scan`) only up to its first failure.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import accumulate, takewhile
from operator import eq

from .core import CurveType, CuspConfiguration, PuiseuxCusp
from .hf import _fold, _p_max_line, _violations, multiplicity_bound_check
from .spectra import _scan, _table_below_one


def cusps_with_delta(delta: int) -> list[PuiseuxCusp]:
    """All one-pair cusps (r, s) with (r-1)(s-1) = 2*delta, sorted by r."""
    if delta < 1:
        return []
    mu = 2 * delta
    cusps = []
    for d1 in range(1, math.isqrt(mu) + 1):
        # d1 <= mu/d1, and d1 = mu/d1 gives r = s, which gcd(r, s) = r rejects.
        r, s = d1 + 1, mu // d1 + 1
        if mu % d1 == 0 and math.gcd(r, s) == 1:
            cusps.append(PuiseuxCusp(r, s))
    return cusps


def enumerate_unicuspidal(curve: CurveType) -> list[PuiseuxCusp]:
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
    choices: list[tuple[int, PuiseuxCusp]] = []
    next_delta = 1
    completions: dict[int, list[PuiseuxCusp]] = {}
    partial: list[PuiseuxCusp] = []
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
) -> Iterator[tuple[bool, bool, bool]]:
    """For each configuration in turn, whether it passes (every cusp has
    r <= b, HF, the spectrum), the columns of `enumerate`; each scan stops at
    its first violation and builds no witness.  Reads `configs` once, so it
    may be any iterable.

    Raises `GenusMismatchError` at a configuration whose total delta is not
    g.  Builds `_p_max_line` and `_table_below_one` (the pairs below 1 and
    mult(1) that `_scan` reads) once, after the first configuration's genus
    check, so an empty listing or a wrong first genus builds neither.
    """
    g, line, infinity = curve.g, None, None
    previous, folds = CuspConfiguration(), [(0,)]  # folds[k] folds previous[:k]
    for config in configs:
        config.require_genus_compatible(curve)
        if line is None:
            line, infinity = tuple(_p_max_line(curve)), _table_below_one(curve)
        shared = len(list(takewhile(bool, map(eq, previous, config))))
        folds[shared:] = accumulate(config[shared:], _fold, initial=folds[shared])
        previous = config
        yield (
            all(multiplicity_bound_check(curve, cusp) for cusp in config),
            next(_violations(line, g, folds[-1]), None) is None,
            next(_scan(infinity, config)[3], None) is None,
        )
