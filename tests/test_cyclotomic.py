"""Field arithmetic in Q(zeta), zeta a primitive sixth root of unity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dp3ring.cyclotomic import CycNum, OMEGA, ONE, ZERO, ZETA


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
cycnums = st.builds(CycNum, rationals, rationals)
nonzero_cycnums = cycnums.filter(bool)


def test_zeta_squared_reduces():
    assert ZETA * ZETA == CycNum(-1, 1)


def test_minimal_polynomial_vanishes():
    assert ONE - ZETA + ZETA * ZETA == ZERO


def test_one_is_neutral():
    value = CycNum(Fraction(3, 7), Fraction(-2, 5))
    assert ONE * value == value
    assert value * ONE == value


def test_zeta_cubed_is_minus_one():
    # oracle: repeated multiplication, no power table
    assert ZETA * ZETA * ZETA == CycNum(-1)


def test_omega_is_primitive_cube_root():
    assert OMEGA == ZETA * ZETA
    assert ONE + OMEGA + OMEGA * OMEGA == ZERO
    assert OMEGA * OMEGA * OMEGA == ONE


def test_inverse_of_one():
    assert ONE.inv() == ONE


def test_inverse_of_zeta():
    # oracle: zeta^6 = 1, so the inverse is the fifth power by iteration
    fifth = ONE
    for _ in range(5):
        fifth = fifth * ZETA
    assert ZETA.inv() == fifth
    assert ZETA.inv() == CycNum(1, -1)


def test_inverse_of_rational():
    assert CycNum(2).inv() == CycNum(Fraction(1, 2))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_division():
    a = CycNum(1, 2)
    b = CycNum(Fraction(1, 3), -1)
    assert (a / b) * b == a


def test_mixed_arithmetic_with_ints_and_fractions():
    assert ZETA + 1 == CycNum(1, 1)
    assert 2 * ZETA == CycNum(0, 2)
    assert ZETA - Fraction(1, 2) == CycNum(Fraction(-1, 2), 1)


def test_integral_parts_are_plain_ints():
    for value in (CycNum(3, -2), CycNum(Fraction(4, 2), Fraction(-6, 3)), ZETA * ZETA,
                  CycNum(Fraction(1, 2)) * 2, CycNum(Fraction(1, 3), 1) + Fraction(2, 3)):
        assert type(value.p) is int and type(value.q) is int, value
    half = CycNum(Fraction(1, 2), 5)
    assert type(half.p) is Fraction and type(half.q) is int


def test_division_and_negative_powers_stay_exact():
    values = [CycNum(2), CycNum(1, 2), CycNum(3, -1), ZETA, CycNum(Fraction(1, 3), -1)]
    for a in values:
        for result in (a.inv(), a / CycNum(7, 2), CycNum(5) / a):
            assert type(result.p) in (int, Fraction), result
            assert type(result.q) in (int, Fraction), result
    assert CycNum(2).inv().p == Fraction(1, 2)
    assert CycNum(1, 2).inv() == CycNum(Fraction(3, 7), Fraction(-2, 7))


def test_integral_fraction_equals_int():
    a, b = CycNum(Fraction(4, 2)), CycNum(2)
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "2"
    a, b = CycNum(Fraction(4, 2), Fraction(-3, 1)), CycNum(2, -3)
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "2 - 3*zeta"


def test_equality_and_hash_on_rational_values():
    assert CycNum(3) == 3
    assert hash(CycNum(3)) == hash(3)
    assert CycNum(Fraction(1, 2)) == Fraction(1, 2)
    assert CycNum(0, 1) != 1


def test_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(ZETA) == "zeta"
    assert str(-ZETA) == "-zeta"
    assert str(CycNum(1, -1)) == "1 - zeta"
    assert str(CycNum(-1, 1)) == "-1 + zeta"
    assert str(CycNum(Fraction(3, 2))) == "3/2"
    assert str(CycNum(0, Fraction(3, 2))) == "3/2*zeta"
    assert str(CycNum(Fraction(1, 2), 3)) == "1/2 + 3*zeta"
    assert str(CycNum(2, Fraction(-5, 3))) == "2 - 5/3*zeta"


@given(a=cycnums, b=cycnums, c=cycnums)
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=cycnums, b=cycnums, c=cycnums)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(a=cycnums, b=cycnums)
def test_multiplication_commutative(a, b):
    assert a * b == b * a


@given(a=nonzero_cycnums)
def test_inverse_property(a):
    assert a * a.inv() == ONE
