"""Cusp semigroups, their counting functions, and infimum convolution.

Every cusp here has one Puiseux pair (r, s), so its semigroup is <r, s> and
is built in closed form: t is a member iff t - j*s is a nonnegative multiple
of r for some j < r, the Frobenius number is rs - r - s, and the
(r - 1)(s - 1)/2 gaps are the delta invariant of the cusp.

The counting function of a semigroup S is R_S(t) = #(S intersect [0, t)),
extended by R_S(t) = 0 for t <= 0.  Counting functions are stored on a
finite window together with the linear tail R(t) = t - tail_offset that is
valid at and beyond the end of the window.

Infimum convolution only scans splits that lie inside both windows.  Past
the end W of its window a counting function grows by exactly 1 per step, so
moving a split that lies beyond one window back to its end lowers that term
by 1 per step and raises the other term by at most 1.  Hence for
min_k R1(k) + R2(t - k) the splits k in [max(0, t - W2), min(t, W1)]
suffice, and from t = W1 + W2 on the result is the sum of the two tails.
The scan reads the window tuples directly.

The counting function of each cusp is memoised by cusp value
(`_cusp_counting_function`, `lru_cache(maxsize=1024)`), so configurations
that share a cusp, on one curve or across curves, build it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Tuple

from .core import CurveType, CuspConfiguration, PuiseuxCusp


@dataclass(frozen=True)
class Semigroup:
    """The numerical semigroup <r, s> of a one-Puiseux-pair cusp.

    `membership[t]` records whether t belongs to the semigroup, for
    t in [0, frobenius + 1].
    """

    generators: Tuple[int, ...]
    membership: Tuple[bool, ...]
    frobenius: int
    gap_count: int

    def __contains__(self, t: int) -> bool:
        if t < 0:
            return False
        if t > self.frobenius:
            return True
        return self.membership[t]


def cusp_semigroup(cusp: PuiseuxCusp) -> Semigroup:
    """The semigroup <r, s> of a one-Puiseux-pair cusp, in closed form.

    The only j < r with t - j*s divisible by r is j = t * s^-1 mod r, so t
    is a member iff that j has j*s <= t.
    """
    r, s = cusp.r, cusp.s
    frobenius = r * s - r - s
    inverse = pow(s, -1, r)
    membership = tuple(t * inverse % r * s <= t for t in range(frobenius + 2))
    return Semigroup((r, s), membership, frobenius, cusp.delta)


@dataclass(frozen=True)
class CountingFunction:
    """A nondecreasing unit-step function with a closed-form linear tail.

    window[t] holds the value at t for t in [0, window_end]; the value is 0
    for t <= 0 and t - tail_offset for t >= window_end.
    """

    window: Tuple[int, ...]
    tail_offset: int

    def __post_init__(self) -> None:
        if not self.window or self.window[0] != 0:
            raise ValueError("counting function window must start with R(0) = 0")
        for t in range(1, len(self.window)):
            if self.window[t] - self.window[t - 1] not in (0, 1):
                raise ValueError(f"counting function must have steps in {{0,1}} (at t={t})")
        if self.window[-1] != self.window_end - self.tail_offset:
            raise ValueError(
                f"window end value {self.window[-1]} does not meet the tail "
                f"t - {self.tail_offset} at t = {self.window_end}"
            )

    @property
    def window_end(self) -> int:
        return len(self.window) - 1

    def __call__(self, t: int) -> int:
        if t <= 0:
            return 0
        if t >= self.window_end:
            return t - self.tail_offset
        return self.window[t]


def identity_counting_function(window_end: int) -> CountingFunction:
    """The counting function of the full semigroup: R(t) = max(t, 0)."""
    return CountingFunction(tuple(range(window_end + 1)), 0)


def counting_function(semigroup: Semigroup) -> CountingFunction:
    """The function t -> #(S intersect [0, t)) with its linear tail."""
    window_end = semigroup.frobenius + 2
    values = [0]
    for t in range(window_end):
        values.append(values[-1] + (1 if t in semigroup else 0))
    return CountingFunction(tuple(values), semigroup.gap_count)


def infimum_convolution(
    r1: CountingFunction, r2: CountingFunction, window_end: int
) -> CountingFunction:
    """Pointwise min over splits: t -> min_k r1(k) + r2(t - k).

    Because both inputs vanish for t <= 0 and have unit steps, the splits
    k in [max(0, t - W2), min(t, W1)] realise the minimum over all integers
    k, where W1 and W2 are the window ends of r1 and r2 (see the module
    docstring).  The tail offset of the result is the sum of the inputs'
    tail offsets; the window is extended far enough for that tail to be
    valid.
    """
    w1, w2 = r1.window, r2.window
    end1, end2 = r1.window_end, r2.window_end
    end = max(window_end, end1 + end2, 1)
    values = []
    for t in range(end1 + end2 + 1):
        lo, hi = max(0, t - end2), min(t, end1)
        # w1[k] + w2[t - k] for k = lo .. hi
        splits = map(add, w1[lo : hi + 1], reversed(w2[t - hi : t - lo + 1]))
        values.append(min(splits))
    tail_offset = r1.tail_offset + r2.tail_offset
    values.extend(t - tail_offset for t in range(end1 + end2 + 1, end + 1))
    return CountingFunction(tuple(values), tail_offset)


@lru_cache(maxsize=1024)
def _cusp_counting_function(cusp: PuiseuxCusp) -> CountingFunction:
    return counting_function(cusp_semigroup(cusp))


def curve_r_function(curve: CurveType, config: CuspConfiguration) -> CountingFunction:
    """The combined counting function of a genus-compatible cusp configuration.

    Fold of the per-cusp counting functions under infimum convolution,
    starting from the first cusp's function, on a window reaching at least
    2g + 1; beyond the window R(2g + m) = g + m.  With no cusps (g = 0) it is
    the identity R(t) = max(t, 0).
    """
    config.require_genus_compatible(curve)
    window_end = 2 * curve.g + 1
    functions = [_cusp_counting_function(cusp) for cusp in config]
    if not functions:
        return identity_counting_function(window_end)
    result = functions[0]
    for function in functions[1:]:
        result = infimum_convolution(result, function, window_end)
    if result.tail_offset != curve.g:
        raise AssertionError(
            f"combined tail offset {result.tail_offset} != genus {curve.g}"
        )
    return result
