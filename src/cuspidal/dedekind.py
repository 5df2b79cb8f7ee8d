"""Sawtooth sums: Dedekind and Dedekind-Rademacher sums, and the half-range
sawtooth sums with their limit verification harness.

<x> is the sawtooth {x} - 1/2, and 0 on the integers.  All sums are exact
rationals.  One Euclid loop does the work, O(log modulus) integer steps:

- ``dedekind_sum(p, q)`` reduces to coprime 0 <= h < k by s(p, q) =
  s(p mod q, q) and s(ch, ck) = s(h, k), then runs Euclid on (h, k) with the
  two-term law s(h, k) = (h^2 + k^2 + 1 - 3hk)/(12hk) - s(k mod h, h),
  until h = 0 (where k = 1 and s(0, 1) = 0).
- ``rademacher_sum(p, q, r)`` reduces p and q mod r.  With g = gcd(q, r)
  and h = gcd(p, g), the distribution relation
  sum_{t < n} <x + t/n> = <nx> folds the sum over i mod r onto i mod r/g:
  D(p, q, r) = h * s((p/h) * (q/g)^-1 mod r/g, r/g).  When r/g = 1, every
  residue mod 1, the inverse too, is 0, and s(0, 1) = 0 gives D = 0.
- ``section_sums(b, w)`` reads the four sums over p in [0, w) off s and D:
  - d_w = 0.  With n = w/gcd(b, w), pb/w mod 1 runs gcd(b, w) times over
    k/n for k in [0, n), and <k/n> + <(n-k)/n> = 0.
  - b_w = 2 s(b, w).  For 0 < p < w, <p/w> = p/w - 1/2, so
    s(b, w) = sum (p/w)<pb/w> - 1/2 sum <pb/w>, and the second sum is 0.
  - c_w = D(b, 2, w), by the definition of D.
  - a_w = b_w - c_w.  2p/w - <2p/w> is 1/2 for 0 < p < w/2 and 3/2 for
    w/2 < p < w; at p = 0 and p = w/2, pb/w is a multiple of 1/2 and
    <pb/w> = 0.  So b_w - c_w = L/2 + 3H/2 with L and H the sums of <pb/w>
    over the lower and the upper half, and L + H = 0 gives b_w - c_w = H,
    which is a_w.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


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
    """D(p, q, r) = sum over i in [0, r) of <p*i/r><q*i/r>; 0 via s(0, 1) if r | q."""
    if r < 1:
        raise ValueError(f"modulus r must be >= 1, got {r}")
    p, q = p % r, q % r
    g = math.gcd(q, r)
    h = math.gcd(p, g)
    modulus = r // g
    return h * dedekind_sum(p // h * pow(q // g, -1, modulus), modulus)


def section_sums(b: int, w: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four sawtooth sums (a_w, b_w, c_w, d_w) for given b and w.

    a_w sums <p*b/w> over the upper half range p in [ceil(w/2), w-1];
    b_w sums <p*b/w> * 2p/w, c_w sums <p*b/w><2p/w>, and d_w is half the
    full-range sawtooth sum, all over p in [0, w-1].  By the identities in
    the module docstring, d_w = 0, b_w = 2 s(b, w), c_w = D(b, 2, w) and
    a_w = b_w - c_w + d_w.
    """
    if b < 2 or w < 2:
        raise ValueError(f"need b >= 2 and w >= 2, got b={b}, w={w}")
    b_w = 2 * dedekind_sum(b, w)
    c_w = rademacher_sum(b, 2, w)
    return b_w - c_w, b_w, c_w, Fraction(0)


def _in_proof_subsequence(b: int, w: int) -> bool:
    if b % 2 == 1:
        return math.gcd(w, 2 * b) == 1
    return math.gcd(b, w) == 2


def limit_values(b: int) -> tuple[Fraction, Fraction, Fraction]:
    """The proven limits of a_w/w, b_w/w, c_w/w for fixed b."""
    if b % 2 == 1:
        return Fraction(1, 8 * b), Fraction(1, 6 * b), Fraction(1, 24 * b)
    return Fraction(0), Fraction(1, 6 * b), Fraction(1, 6 * b)


class LimitEntry(namedtuple("LimitEntry", "name w value limit")):
    """One limit at one w: str name, int w, and `Fraction` value and limit."""

    __slots__ = ()

    @property
    def deviation(self) -> Fraction:
        return abs(self.value - self.limit)


class LimitReport(namedtuple("LimitReport", "b tol entries")):
    """The int b, the `Fraction` tolerance, and the tuple of `LimitEntry`."""

    __slots__ = ()

    @property
    def all_within_tol(self) -> bool:
        return all(entry.deviation <= self.tol for entry in self.entries)


def _snap_to_subsequence(b: int, target: int) -> int | None:
    for w in range(target, 1, -1):
        if _in_proof_subsequence(b, w):
            return w
    return None


def verify_limits(
    b: int, max_w: int, tol: Fraction = Fraction(1, 200)
) -> LimitReport:
    """Convergence harness for the three limit statements.

    Evaluates a_w/w, b_w/w and c_w/w at the largest w <= max_w of the
    subsequence used in the corresponding proofs (w coprime to 2b for odd b;
    gcd(b, w) = 2 for even b) and reports their deviations from the limits.
    This checks convergence at a finite scale, not the limits themselves.
    """
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    if max_w < 100:
        raise ValueError(f"max_w must be >= 100, got {max_w}")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    w = _snap_to_subsequence(b, max_w)
    if w is None:
        raise ValueError(f"no subsequence member <= {max_w} for b = {b}")
    a_w, b_w, c_w, _ = section_sums(b, w)
    a_lim, b_lim, c_lim = limit_values(b)
    entries = (
        LimitEntry("a_w/w", w, a_w / w, a_lim),
        LimitEntry("b_w/w", w, b_w / w, b_lim),
        LimitEntry("c_w/w", w, c_w / w, c_lim),
    )
    return LimitReport(b, Fraction(tol), entries)
