"""Exact domain types: curve types on ruled surfaces, cusps, configurations.

All fractional quantities in this package are exact: a `fractions.Fraction`,
or int numerators over a stated denominator.  Nothing is ever represented in
floating point.  Every type here is an immutable value with its derived
invariants checked eagerly at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


class GenusMismatchError(ValueError):
    """A cusp list whose total delta invariant differs from the curve genus."""


@dataclass(frozen=True, order=True)
class PuiseuxCusp:
    """A unibranched singularity locally of the form x^r = y^s.

    Requires 2 <= r < s and gcd(r, s) = 1.  The Milnor number is
    mu = (r-1)(s-1), always even; delta = mu/2 is the genus of the link.
    """

    r: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"cusp exponent r must be >= 2, got {self.r}")
        if self.s <= self.r:
            raise ValueError(f"cusp exponents must satisfy s > r, got ({self.r}, {self.s})")
        if math.gcd(self.r, self.s) != 1:
            raise ValueError(f"cusp exponents must be coprime, got ({self.r}, {self.s})")

    @property
    def mu(self) -> int:
        return (self.r - 1) * (self.s - 1)

    @property
    def delta(self) -> int:
        # mu is even: r, s coprime means at least one of r-1, s-1 is even.
        return self.mu // 2

    def __str__(self) -> str:
        return f"({self.r},{self.s})"


@dataclass(frozen=True)
class CurveType:
    """A curve class (a, b) on the ruled surface with twisting parameter e.

    Derived quantities:
      w = a + b*e
      d = 2ab + b^2 e   (self-intersection)
      c = gcd(a, b)
      g = (a-1)(b-1) + b(b-1)e/2   (arithmetic genus)

    Accepts a >= 0, b >= 1, e >= 0 with d > 0 and g >= 0.  b = 0 is
    rejected outright: the signature and spectrum formulas divide by b.
    """

    a: int
    b: int
    e: int = 0

    def __post_init__(self) -> None:
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.a < 0:
            raise ValueError(f"a must be nonnegative, got {self.a}")
        if self.e < 0:
            raise ValueError(f"e must be nonnegative, got {self.e}")
        if self.d <= 0:
            raise ValueError(f"self-intersection must be positive, got {self.d}")
        if self.g < 0:
            raise ValueError(f"arithmetic genus must be nonnegative, got {self.g}")

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


@dataclass(frozen=True)
class CuspConfiguration:
    """A finite (possibly empty) list of one-Puiseux-pair cusps."""

    cusps: Tuple[PuiseuxCusp, ...] = ()

    def __post_init__(self) -> None:
        # A tuple whatever the caller passed, so the value hashes as a memo key.
        object.__setattr__(self, "cusps", tuple(self.cusps))

    @property
    def total_delta(self) -> int:
        return sum(cusp.delta for cusp in self.cusps)

    def is_genus_compatible(self, curve: CurveType) -> bool:
        return self.total_delta == curve.g

    def require_genus_compatible(self, curve: CurveType) -> None:
        if not self.is_genus_compatible(curve):
            raise GenusMismatchError(
                f"cusp configuration has total delta {self.total_delta}, "
                f"but curve {curve} needs total delta = g = {curve.g}"
            )

    def __iter__(self):
        return iter(self.cusps)

    def __len__(self) -> int:
        return len(self.cusps)

    def __str__(self) -> str:
        if not self.cusps:
            return "[]"
        return "[" + ", ".join(str(c) for c in self.cusps) + "]"
