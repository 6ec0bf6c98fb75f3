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
        if isinstance(other, Mod):
            return self.val == self._coerce(other)
        # an int equals only its canonical residue, so equal objects hash alike
        return self.val == other if isinstance(other, int) else NotImplemented

    def __hash__(self):
        return hash(self.val)  # equal ints must hash alike: Mod(1, 5) == 1

    def __repr__(self):
        return str(self.val)


# Miller-Rabin on the primes up to 41 decides primality exactly below
# MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017). The primes up to 37 alone are fooled by
# 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises BadField at or above MR_LIMIT."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= MR_LIMIT:
        raise BadField(f"cannot decide whether {p} is prime: the test is exact "
                       f"only below {MR_LIMIT}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
            return Fraction(value) if self.p is None else Mod(value, self.p)
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
