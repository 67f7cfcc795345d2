"""Coefficient fields: exact rationals (default) and prime fields GF(p).

Field elements are plain numbers supporting +, -, *, /, == 0 and hashing,
so the term algebra never has to know which field it is working over.
Rationals are `fractions.Fraction`; GF(p) elements are `ModInt` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


class ModInt:
    """An element of GF(p), canonically reduced to 0 <= value < p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise InputError(f"mixed prime fields GF({self.p}) and GF({other.p})")
            return other
        if isinstance(other, int):
            return ModInt(other, self.p)
        if isinstance(other, Fraction):
            return ModInt(other.numerator, self.p) / ModInt(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value + other.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value - other.value, self.p)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return self * ModInt(pow(other.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        inv = ModInt(pow(self.value, -1, self.p), self.p)
        return inv * other

    def __pow__(self, n: int):
        return ModInt(pow(self.value, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Rationals:
    name: str = "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, ModInt):
            raise InputError("cannot coerce a GF(p) element into Q")
        return Fraction(x)


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below _PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson
# and Webster, Math. Comp. 86, 2017); the first 12 reach only 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if self.p >= _PRIME_LIMIT:
            raise InputError(f"prime fields need p < {_PRIME_LIMIT}")
        if not _is_prime(self.p):
            raise InputError(f"{self.p} is not prime")

    @property
    def name(self):
        return f"GF({self.p})"

    @property
    def zero(self):
        return ModInt(0, self.p)

    @property
    def one(self):
        return ModInt(1, self.p)

    def coerce(self, x):
        if isinstance(x, ModInt):
            if x.p != self.p:
                raise InputError(f"cannot move an element of GF({x.p}) into GF({self.p})")
            return x
        if isinstance(x, Fraction):
            return ModInt(x.numerator, self.p) / ModInt(x.denominator, self.p)
        return ModInt(int(x), self.p)


QQ = Rationals()


def field_from_spec(spec: str):
    """Parse a CLI field spec: ``q`` for the rationals, ``p:5`` for GF(5)."""
    spec = spec.strip().lower()
    if spec in ("q", "qq", "rational", "rationals"):
        return QQ
    shown = spec if len(spec) <= 24 else spec[:20] + "..."
    if spec.startswith("p:"):
        try:
            p = int(spec[2:])
        except ValueError as exc:
            raise InputError(f"bad prime in field spec {shown!r}") from exc
        return PrimeField(p)  # whose InputError gives the reason
    raise InputError(f"unknown field spec {shown!r} (expected 'q' or 'p:<prime>')")
