"""Exact coefficient arithmetic for the rings the reduction engine runs over.

Supported rings: Z/mZ (the prime fields F_p and Z/4Z), the rationals Q and
the integers Z.  Values are kept in a canonical form per ring (0..m-1 for
Z/mZ, reduced Fraction for Q) so equality of coefficients is plain ``==``.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class NonUnitError(ArithmeticError):
    """Raised when inverting an element without a multiplicative inverse."""


class Ring:
    """A commutative ring with unit detection driving Gaussian elimination.

    Subclasses keep elements in canonical form; all arithmetic returns
    canonical values.  Instances hold only their constants ``zero`` and
    ``one`` and are safe to share.
    """

    name = "?"
    is_field = False

    def __init__(self):
        self.zero = self.from_int(0)
        self.one = self.from_int(1)


    def from_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_unit(self, a):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero

    def __repr__(self):
        return f"<ring {self.name}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash((type(self).__name__, self.name))


def _is_prime(m):
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


class Modular(Ring):
    """Z/mZ with representatives 0..m-1, named f{p} when it is the field F_p."""

    def __init__(self, m):
        self.m = m
        self.is_field = _is_prime(m)
        self.name = f"f{m}" if self.is_field else f"z{m}"
        super().__init__()


    def from_int(self, n):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def is_unit(self, a):
        return gcd(a, self.m) == 1

    def invert(self, a):
        if gcd(a, self.m) != 1:
            raise NonUnitError(f"{a % self.m} is not invertible in {self.name}")
        return pow(a, -1, self.m)


class Integers(Ring):
    """Z, with units +-1.

    The scan ring of every ``s`` or ``kh`` row whose rings are not F2
    alone; each field reads the scan through ``sinv.base_change``.
    """

    name = "z"


    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a in (1, -1)

    def invert(self, a):
        if a not in (1, -1):
            raise NonUnitError(f"{a} is not invertible in z")
        return a


class Rationals(Integers):
    """Q with reduced fractions; arbitrary precision, no silent overflow."""

    name = "q"
    is_field = True


    def from_int(self, n):
        return Fraction(n)

    def is_unit(self, a):
        return a != 0

    def invert(self, a):
        if a == 0:
            raise NonUnitError("0 is not invertible in q")
        return 1 / Fraction(a)


Q = Rationals()
Z = Integers()
Z4 = Modular(4)
F2 = Modular(2)
F3 = Modular(3)

_CACHE: dict[str, Ring] = {"q": Q, "z": Z, "z4": Z4, "f2": F2, "f3": F3}


def ring_from_name(name: str) -> Ring:
    """Map a CLI ring name (f2, f3, f5, ..., q, z, z4) to a Ring."""
    key = name.strip().lower()
    if key in _CACHE:
        return _CACHE[key]
    if key.startswith("f") and key[1:].isdigit():
        p = int(key[1:])
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        ring = _CACHE[key] = Modular(p)
        return ring
    raise ValueError(f"unknown ring {name!r}")
