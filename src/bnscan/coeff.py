"""Exact coefficient arithmetic for the rings the reduction engine runs over.

Supported rings: prime fields F_p, the rationals Q, the integers Z, and Z/4Z.
Values are kept in a canonical form per ring (0..p-1 for F_p, reduced
Fraction for Q, 0..3 for Z/4Z) so equality of coefficients is plain ``==``.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


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


class PrimeField(Ring):
    """F_p with canonical representatives 0..p-1."""

    is_field = True

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"f{p}"
        super().__init__()


    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def invert(self, a):
        if a % self.p == 0:
            raise NonUnitError(f"0 is not invertible in {self.name}")
        return pow(a, -1, self.p)


class Rationals(Ring):
    """Q with reduced fractions; arbitrary precision, no silent overflow."""

    name = "q"
    is_field = True


    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def invert(self, a):
        if a == 0:
            raise NonUnitError("0 is not invertible in q")
        return 1 / Fraction(a)


class Integers(Ring):
    """Z; only used to seed tensor constructions, units are +-1."""

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


class IntegersMod4(Ring):
    """Z/4Z with representatives 0..3; units are 1 and 3."""

    name = "z4"


    def from_int(self, n):
        return n % 4

    def add(self, a, b):
        return (a + b) % 4

    def mul(self, a, b):
        return (a * b) % 4

    def neg(self, a):
        return (-a) % 4

    def is_unit(self, a):
        return a % 4 in (1, 3)

    def invert(self, a):
        a = a % 4
        if a not in (1, 3):
            raise NonUnitError(f"{a} is not invertible in z4")
        return a  # 1*1 = 1, 3*3 = 9 = 1 mod 4


Q = Rationals()
Z = Integers()
Z4 = IntegersMod4()
F2 = PrimeField(2)
F3 = PrimeField(3)

_CACHE: dict[str, Ring] = {"q": Q, "z": Z, "z4": Z4, "f2": F2, "f3": F3}


def ring_from_name(name: str) -> Ring:
    """Map a CLI ring name (f2, f3, f5, ..., q, z, z4) to a Ring."""
    key = name.strip().lower()
    if key in _CACHE:
        return _CACHE[key]
    if key.startswith("f") and key[1:].isdigit():
        ring = PrimeField(int(key[1:]))
        _CACHE[key] = ring
        return ring
    raise ValueError(f"unknown ring {name!r}")

