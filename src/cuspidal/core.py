"""Exact domain types: curve types on ruled surfaces, cusps, configurations.

All fractional quantities in this package are exact: a `fractions.Fraction`,
or int numerators over a stated denominator.  Nothing is ever represented in
floating point.  Every type here is an immutable tuple of its defining
integers (or cusps), with its derived invariants checked eagerly at
construction; it compares, orders and hashes as that tuple.  Every record
of the package subclasses a `collections.namedtuple` with `__slots__ = ()`
and states its fields' types in its docstring; the validating `__new__` of
`PuiseuxCusp` and `CurveType` serves their `_make`, and so `_replace`.  Both
filter reports take `obstructed` (a witness exists) and `verdict`, the word
of `_VERDICTS` that the CLI's verdict columns read too, from `_Verdict`.
"""

from __future__ import annotations

import math
from collections import namedtuple


_VERDICTS = ("obstructed", "passes")  # indexed by whether the filter passes


class _Verdict:
    __slots__ = ()  # a mixin of records with `witnesses` (module docstring)

    @property
    def obstructed(self) -> bool:
        return bool(self.witnesses)

    @property
    def verdict(self) -> str:
        return _VERDICTS[not self.witnesses]


class GenusMismatchError(ValueError):
    """A cusp list whose total delta invariant differs from the curve genus."""


class PuiseuxCusp(namedtuple("PuiseuxCusp", "r s")):
    """A unibranched singularity locally of the form x^r = y^s.

    Requires 2 <= r < s and gcd(r, s) = 1.  The Milnor number is
    mu = (r-1)(s-1), always even; delta = mu/2 is the genus of the link.
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int) -> PuiseuxCusp:
        if r < 2:
            raise ValueError(f"cusp exponent r must be >= 2, got {r}")
        if s <= r:
            raise ValueError(f"cusp exponents must satisfy s > r, got ({r}, {s})")
        if math.gcd(r, s) != 1:
            raise ValueError(f"cusp exponents must be coprime, got ({r}, {s})")
        return super().__new__(cls, r, s)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def mu(self) -> int:
        return (self.r - 1) * (self.s - 1)

    @property
    def delta(self) -> int:
        # mu is even: r, s coprime means at least one of r-1, s-1 is even.
        return self.mu // 2

    def __str__(self) -> str:
        return f"({self.r},{self.s})"


class CurveType(namedtuple("CurveType", "a b e")):
    """A curve class (a, b) on the ruled surface with twisting parameter e.

    Derived quantities:
      w = a + b*e
      d = 2ab + b^2 e   (self-intersection)
      c = gcd(a, b)
      g = (a-1)(b-1) + b(b-1)e/2   (arithmetic genus)

    Accepts a >= 0, b >= 1, e >= 0 with d > 0.  b = 0 is rejected outright:
    the signature and spectrum formulas divide by b.  These force g >= 0: for
    a >= 1 both terms of g are, and for a = 0, d = b^2 e > 0 forces e >= 1,
    so g = (b-1)(be-2)/2 >= 0.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, e: int = 0) -> CurveType:
        if b <= 0:
            raise ValueError(f"b must be positive, got {b}")
        if a < 0:
            raise ValueError(f"a must be nonnegative, got {a}")
        if e < 0:
            raise ValueError(f"e must be nonnegative, got {e}")
        self = super().__new__(cls, a, b, e)
        if self.d <= 0:
            raise ValueError(f"self-intersection must be positive, got {self.d}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def w(self) -> int:
        return self.a + self.b * self.e

    @property
    def d(self) -> int:
        return 2 * self.a * self.b + self.b * self.b * self.e

    @property
    def c(self) -> int:
        return math.gcd(self.a, self.b)

    @property
    def g(self) -> int:
        # b(b-1)e is even, so this is an exact integer.
        return (self.a - 1) * (self.b - 1) + self.b * (self.b - 1) * self.e // 2

    def __str__(self) -> str:
        return f"({self.a},{self.b}) in X_{self.e}"


class CuspConfiguration(tuple):
    """A finite (possibly empty) tuple of one-Puiseux-pair cusps."""

    __slots__ = ()

    @property
    def total_delta(self) -> int:
        return sum(cusp.delta for cusp in self)

    def is_genus_compatible(self, curve: CurveType) -> bool:
        return self.total_delta == curve.g

    def require_genus_compatible(self, curve: CurveType) -> None:
        if not self.is_genus_compatible(curve):
            raise GenusMismatchError(
                f"genus mismatch: expected sum(mu/2) = g = {curve.g}, "
                f"got {self.total_delta}"
            )

    def __repr__(self) -> str:
        return f"CuspConfiguration(cusps={tuple(self)!r})"

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self)) + "]"
