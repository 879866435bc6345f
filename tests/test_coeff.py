from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bnscan.coeff import (
    F2,
    F3,
    NonUnitError,
    Q,
    Z,
    Z4,
    Modular,
    ring_from_name,
)
from helpers import canon

RINGS = [F2, F3, Modular(5), Q, Z, Z4]


def test_unit_examples():
    assert F2.is_unit(1)
    # multiplication by 2 in Z/4Z is not invertible
    assert not Z4.is_unit(2)
    # exhaustive multiplication table mod 4: only 1 and 3 hit 1
    units = {a for a in range(4) if any((a * b) % 4 == 1 for b in range(4))}
    assert units == {1, 3}
    assert Z4.is_unit(3)
    # every Z/mZ against its brute-force multiplication table
    for ring in (F2, F3, Modular(5), Modular(7), Z4):
        m = ring.m
        for a in range(m):
            inverses = [b for b in range(m) if (a * b) % m == 1]
            assert ring.is_unit(a) == bool(inverses)
            if inverses:
                assert ring.invert(a) == inverses[0]
            else:
                with pytest.raises(NonUnitError):
                    ring.invert(a)


def test_invert_examples():
    assert Q.invert(Fraction(2, 3)) == Fraction(3, 2)
    assert F3.invert(2) == 2  # 2*2 = 4 = 1 mod 3
    assert Z4.invert(3) == 3  # 3*3 = 9 = 1 mod 4


def test_invert_nonunit_raises():
    with pytest.raises(NonUnitError):
        Z4.invert(2)
    with pytest.raises(NonUnitError):
        Q.invert(Fraction(0))
    with pytest.raises(NonUnitError):
        Z.invert(2)


@pytest.mark.parametrize("ring", RINGS)
@given(a=st.integers(-40, 40), b=st.integers(-40, 40))
def test_arithmetic_stays_canonical(ring, a, b):
    x, y = ring.from_int(a), ring.from_int(b)
    for v in (ring.add(x, y), ring.mul(x, y), ring.neg(x)):
        assert v == canon(ring, v)
    if ring.is_unit(x):
        assert ring.mul(x, ring.invert(x)) == ring.one


def test_rationals_are_exact():
    third = Q.invert(Q.from_int(3))
    acc = Q.zero
    for _ in range(3):
        acc = Q.add(acc, third)
    assert acc == Q.one
    big = Fraction(10**40, 3)
    assert Q.mul(big, Q.invert(big)) == 1


def test_ring_from_name():
    assert ring_from_name("f2") is F2
    assert ring_from_name("q") is Q
    assert ring_from_name("z4") is Z4
    assert ring_from_name("f7").m == 7
    for bad in ("f0", "f1", "f4", "f9", "f", "f-3"):
        with pytest.raises(ValueError):
            ring_from_name(bad)
    with pytest.raises(ValueError):
        ring_from_name("gl2")


def test_field_flags():
    assert F2.is_field and Q.is_field
    assert not Z.is_field and not Z4.is_field


def test_mod2_reduction():
    # from_int is the reduction map Z/4Z -> F2 on canonical residues
    assert [F2.from_int(Z4.from_int(a)) for a in range(4)] == [0, 1, 0, 1]
    assert [F2.from_int(a) for a in range(-4, 4)] == [0, 1] * 4
