"""Exact scalar arithmetic: the rationals and prime fields F_p with p >= 5.

Rational scalars are `fractions.Fraction`; prime-field scalars are `Mod`
instances supporting the same operators, so all linear algebra in this
package runs on a single generic code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadField


class Mod:
    """An element of F_p, stored as its canonical representative 0..p-1."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.val
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Mod(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Mod(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Mod(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Mod(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Mod(self.val * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Mod(v * pow(self.val, self.p - 2, self.p), self.p)

    def __neg__(self):
        return Mod(-self.val, self.p)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        v = self._coerce(other) if isinstance(other, (Mod, int)) else None
        return NotImplemented if v is None else self.val == v

    def __hash__(self):
        return hash(self.val)  # equal ints must hash alike: Mod(1, 5) == 1

    def __repr__(self):
        return str(self.val)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (p = None) or a prime field F_p with p >= 5.

    Characteristic 2 and 3 are rejected: the super sign rule needs 2
    invertible and the odd-cube identity needs 3 invertible.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not _is_prime(self.p):
                raise BadField(f"{self.p} is not prime")
            if self.p < 5:
                raise BadField(f"characteristic {self.p} is excluded (must be 0 or >= 5)")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else Mod(0, self.p)

    @property
    def one(self):
        return Fraction(1) if self.p is None else Mod(1, self.p)

    def of(self, value):
        """Coerce an int, Fraction, Mod or literal string into this field."""
        if isinstance(value, Mod):
            if self.p != value.p:
                raise BadField(f"cannot coerce F_{value.p} element into {self}")
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise BadField(f"cannot interpret {value!r} as a {self} scalar")
        if self.p is None:
            return value
        if value.denominator % self.p == 0:
            raise BadField(f"denominator of {value} is not invertible mod {self.p}")
        return Mod(value.numerator, self.p) / Mod(value.denominator, self.p)

    def __str__(self):
        return "Q" if self.p is None else f"F{self.p}"


RATIONALS = Field()
