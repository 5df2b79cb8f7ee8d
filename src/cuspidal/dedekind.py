"""Sawtooth sums: Dedekind and Dedekind-Rademacher sums, reciprocity, and
the half-range sawtooth sums with their limit verification harness.

All sums are exact rationals, and each takes O(log modulus) integer steps:

- ``dedekind_sum(p, q)`` reduces to coprime 0 <= h < k by s(p, q) =
  s(p mod q, q) and s(ch, ck) = s(h, k), then runs Euclid on (h, k) with the
  two-term law s(h, k) = (h^2 + k^2 + 1 - 3hk)/(12hk) - s(k mod h, h),
  until h = 0 (where k = 1 and s(0, 1) = 0).
- ``rademacher_sum(p, q, r)`` reduces p and q mod r.  With g = gcd(q, r)
  and h = gcd(p, g), the distribution relation
  sum_{t < n} <x + t/n> = <nx> folds the sum over i mod r onto i mod r/g:
  D(p, q, r) = h * s((p/h) * (q/g)^-1 mod r/g, r/g), and D = 0 when
  r/g = 1.
- ``section_sums(b, w)`` writes the sawtooth numerator
  2w<pb/w> = 2pb - 2w*floor(pb/w) - w + w*[w | pb].  <2p/w> is linear on
  [0, ceil(w/2)) and on [ceil(w/2), w), apart from its zeros at p = 0 and
  p = w/2, where <pb/w> = 0 as well.  So all four sums reduce to prefix
  sums of floor(bx/w) and x*floor(bx/w), which the Euclid-like floor-sum
  recursion computes (carrying the sum of floor(.)^2 as well).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple


def sawtooth(x: Fraction) -> Fraction:
    """{x} - 1/2 for non-integer x, and 0 on the integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def _sawtooth_numerator(value: int, modulus: int) -> int:
    """2*modulus times sawtooth(value / modulus)."""
    rem = value % modulus
    if rem == 0:
        return 0
    return 2 * rem - modulus


def dedekind_sum(p: int, q: int) -> Fraction:
    """s(p, q) = sum over i in [0, q) of <i/q><p*i/q>."""
    if q < 1:
        raise ValueError(f"modulus q must be >= 1, got {q}")
    h = p % q
    g = math.gcd(h, q)
    h, k = h // g, q // g
    # The running total is num/den; den is the product of the 12hk so far.
    num, den, sign = 0, 1, 1
    while h:
        hk = h * k
        num = num * hk + sign * (h * h + k * k + 1 - 3 * hk) * den
        den *= hk
        h, k = k % h, h
        sign = -sign
    return Fraction(num, 12 * den)


def rademacher_sum(p: int, q: int, r: int) -> Fraction:
    """D(p, q, r) = sum over i in [0, r) of <p*i/r><q*i/r>."""
    if r < 1:
        raise ValueError(f"modulus r must be >= 1, got {r}")
    p, q = p % r, q % r
    g = math.gcd(q, r)
    if g == r:
        return Fraction(0)
    h = math.gcd(p, g)
    modulus = r // g
    return h * dedekind_sum(p // h * pow(q // g, -1, modulus), modulus)


def dedekind_reciprocity_rhs(p: int, q: int) -> Fraction:
    """The two-term law: s(p,q) + s(q,p) for coprime p, q."""
    return Fraction(1, 12) * (
        Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q) - 3
    )


def rademacher_reciprocity_rhs(p: int, q: int, r: int) -> Fraction:
    """The three-term law: D(p,q,r) + D(r,p,q) + D(q,r,p) for pairwise coprime."""
    return Fraction(p * p + q * q + r * r - 3 * p * q * r, 12 * p * q * r)


def _floor_sums(a: int, b: int, c: int, n: int) -> Tuple[int, int, int]:
    """Sums over x in [0, n] of f(x), x*f(x) and f(x)^2, f(x) = floor((ax+b)/c).

    Needs a, b, n >= 0 and c >= 1.  Each level either reduces a and b mod c
    or swaps the roles of a and c, so the depth is that of Euclid on (a, c).
    """
    if a >= c or b >= c:
        qa, a = divmod(a, c)
        qb, b = divmod(b, c)
        f, g, h = _floor_sums(a, b, c, n)
        s1 = n * (n + 1) // 2
        s2 = s1 * (2 * n + 1) // 3
        return (
            f + qa * s1 + qb * (n + 1),
            g + qa * s2 + qb * s1,
            h + qa * qa * s2 + qb * qb * (n + 1) + 2 * qa * qb * s1
            + 2 * qb * f + 2 * qa * g,
        )
    m = (a * n + b) // c
    if m == 0:
        return 0, 0, 0
    # Count lattice points by rows instead of columns: floor((ax+b)/c) >= j
    # exactly when x > floor((cj - b - 1)/a), for j in [1, m].
    f, g, h = _floor_sums(c, c - b - 1, a, m - 1)
    total = n * m - f
    return total, (m * n * (n + 1) - h - f) // 2, n * m * (m + 1) - 2 * g - 2 * f - total


def _sawtooth_prefix(b: int, w: int, n: int) -> Tuple[int, int]:
    """Sums over p in [0, n) of 2w<pb/w> and of p * 2w<pb/w>."""
    if n == 0:
        return 0, 0
    floor_sum, floor_moment, _ = _floor_sums(b, 0, w, n - 1)
    step = w // math.gcd(b, w)  # w | pb exactly when step | p
    hits = (n + step - 1) // step
    s1 = n * (n - 1) // 2
    s2 = s1 * (2 * n - 1) // 3
    return (
        2 * b * s1 - 2 * w * floor_sum - w * n + w * hits,
        2 * b * s2 - 2 * w * floor_moment - w * s1 + w * step * hits * (hits - 1) // 2,
    )


def section_sums(b: int, w: int) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four sawtooth sums (a_w, b_w, c_w, d_w) for given b and w.

    a_w sums <p*b/w> over the upper half range p in [ceil(w/2), w-1];
    b_w sums <p*b/w> * 2p/w, c_w sums <p*b/w><2p/w>, and d_w is half the
    full-range sawtooth sum, all over p in [0, w-1].  The exact identity
    a_w = b_w - c_w + d_w holds, with d_w = 0.
    """
    if b < 2 or w < 2:
        raise ValueError(f"need b >= 2 and w >= 2, got b={b}, w={w}")
    half_start = (w + 1) // 2
    low_sum, _ = _sawtooth_prefix(b, w, half_start)
    full_sum, full_moment = _sawtooth_prefix(b, w, w)
    high_sum = full_sum - low_sum
    # 2w<2p/w> is 4p - w below half_start and 4p - 3w from it on, except
    # that it is 0 at p = 0 and p = w/2.  There pb/w is a multiple of 1/2,
    # so <pb/w> = 0 and the two terms need no correction.
    c_num = 4 * full_moment - w * low_sum - 3 * w * high_sum
    return (
        Fraction(high_sum, 2 * w),
        Fraction(2 * full_moment, 2 * w * w),
        Fraction(c_num, 4 * w * w),
        Fraction(full_sum, 4 * w),
    )


def _in_proof_subsequence(b: int, w: int) -> bool:
    if b % 2 == 1:
        return math.gcd(w, 2 * b) == 1
    return math.gcd(b, w) == 2


def limit_values(b: int) -> Tuple[Fraction, Fraction, Fraction]:
    """The proven limits of a_w/w, b_w/w, c_w/w for fixed b."""
    if b % 2 == 1:
        return Fraction(1, 8 * b), Fraction(1, 6 * b), Fraction(1, 24 * b)
    return Fraction(0), Fraction(1, 6 * b), Fraction(1, 6 * b)


class LimitEntry(NamedTuple):
    name: str
    w: int
    value: Fraction
    limit: Fraction

    @property
    def deviation(self) -> Fraction:
        return abs(self.value - self.limit)


class LimitReport(NamedTuple):
    b: int
    tol: Fraction
    entries: Tuple[LimitEntry, ...]

    @property
    def all_within_tol(self) -> bool:
        return all(entry.deviation <= self.tol for entry in self.entries)


def _snap_to_subsequence(b: int, target: int) -> Optional[int]:
    for w in range(target, 1, -1):
        if _in_proof_subsequence(b, w):
            return w
    return None


def verify_limits(
    b: int, w_max: int, tol: Fraction = Fraction(1, 200)
) -> LimitReport:
    """Convergence harness for the three limit statements.

    Evaluates a_w/w, b_w/w and c_w/w at the largest w <= w_max of the
    subsequence used in the corresponding proofs (w coprime to 2b for odd b;
    gcd(b, w) = 2 for even b) and reports their deviations from the limits.
    This checks convergence at a finite scale, not the limits themselves.
    """
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    if w_max < 100:
        raise ValueError(f"w_max must be >= 100, got {w_max}")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    w = _snap_to_subsequence(b, w_max)
    if w is None:
        raise ValueError(f"no subsequence member <= {w_max} for b = {b}")
    a_w, b_w, c_w, _ = section_sums(b, w)
    a_lim, b_lim, c_lim = limit_values(b)
    entries = (
        LimitEntry("a_w/w", w, a_w / w, a_lim),
        LimitEntry("b_w/w", w, b_w / w, b_lim),
        LimitEntry("c_w/w", w, c_w / w, c_lim),
    )
    return LimitReport(b, Fraction(tol), entries)
