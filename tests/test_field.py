"""Arithmetic in the degree-4 cyclotomic field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enricert import (
    Cyclo,
    ONE,
    SQRT2,
    SQRT_M1,
    ZERO,
    ZETA8,
    field_sqrt,
    parse_cyclo,
    root_of_unity_order,
)
from enricert.errors import ParseError

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)
cyclos = st.builds(Cyclo, fractions, fractions, fractions, fractions)
nonzero_cyclos = cyclos.filter(lambda c: not c.is_zero())
# Heights like those of generated input documents: numerators up to about
# 10^20 over denominators up to about 10^12.
large_fractions = st.builds(
    Fraction,
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.integers(min_value=1, max_value=10 ** 12),
)
large_nonzero_cyclos = st.builds(
    Cyclo, large_fractions, large_fractions, large_fractions, large_fractions
).filter(lambda c: not c.is_zero())


def test_defining_relation():
    assert ZETA8 ** 4 == -1
    assert ZETA8 ** 8 == 1


def test_named_constants():
    assert SQRT_M1 == ZETA8 ** 2
    assert SQRT_M1 * SQRT_M1 == -1
    assert SQRT2 * SQRT2 == 2
    assert SQRT2 == ZETA8 - ZETA8 ** 3
    assert ZETA8 * SQRT2 == ONE + SQRT_M1


def test_mixed_arithmetic_with_ints_and_fractions():
    assert ONE + 1 == Cyclo(2)
    assert 2 - ONE == ONE
    assert Fraction(1, 2) * Cyclo(2) == ONE
    assert (3 / Cyclo(3)) == ONE
    assert ZERO - 1 == Cyclo(-1)


def test_inverse_of_basis_elements():
    for k in range(8):
        u = ZETA8 ** k
        assert u * u.inverse() == ONE


def test_inverse_of_dense_element():
    a = Cyclo(Fraction(3, 2), -1, Fraction(1, 3), 2)
    assert a * a.inverse() == ONE
    assert ONE / a == a.inverse()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_rational_detection():
    assert Cyclo(Fraction(7, 2)).is_rational()
    assert not ZETA8.is_rational()
    assert Cyclo(4).is_integer()
    assert not Cyclo(Fraction(1, 2)).is_integer()
    assert Cyclo(Fraction(7, 2)).rational_value() == Fraction(7, 2)


def test_root_of_unity_order_table():
    assert root_of_unity_order(ONE) == 1
    assert root_of_unity_order(-ONE) == 2
    assert root_of_unity_order(SQRT_M1) == 4
    assert root_of_unity_order(-SQRT_M1) == 4
    assert root_of_unity_order(ZETA8) == 8
    assert root_of_unity_order(-ZETA8 ** 3) == 8
    assert root_of_unity_order(Cyclo(2)) is None
    assert root_of_unity_order(ZERO) is None
    assert root_of_unity_order(ONE + ZETA8) is None


def test_encode_and_parse_round_trip():
    a = Cyclo(Fraction(3, 2), -1, 0, Fraction(-5, 7))
    assert parse_cyclo(a.encode()) == a
    assert parse_cyclo("1") == ONE
    assert parse_cyclo("0,1") == ZETA8
    assert parse_cyclo("0,0,1,0") == SQRT_M1


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_cyclo("1,2,3,4,5")
    with pytest.raises(ParseError):
        parse_cyclo("x")
    with pytest.raises(ParseError):
        parse_cyclo("1/0")


def test_field_sqrt_examples():
    assert field_sqrt(Cyclo(4)) == Cyclo(2)
    # sqrt(-1) and sqrt(2) live in the field
    assert field_sqrt(Cyclo(-1)) in (SQRT_M1, -SQRT_M1)
    r = field_sqrt(Cyclo(2))
    assert r is not None and r * r == 2
    # sqrt(i) = zeta8 up to sign
    r = field_sqrt(SQRT_M1)
    assert r is not None and r * r == SQRT_M1
    # 3 has no square root in the field
    assert field_sqrt(Cyclo(3)) is None
    assert field_sqrt(ONE + ZETA8) is None


@settings(max_examples=120, deadline=None)
@given(cyclos)
def test_sqrt_of_square_exists(a):
    r = field_sqrt(a * a)
    assert r is not None
    assert r * r == a * a


@settings(max_examples=120, deadline=None)
@given(cyclos, cyclos, cyclos)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=120, deadline=None)
@given(st.one_of(nonzero_cyclos, large_nonzero_cyclos))
def test_multiplicative_inverse(a):
    assert a * a.inverse() == ONE
    assert (a.inverse()).inverse() == a


@settings(max_examples=120, deadline=None)
@given(nonzero_cyclos, st.integers(min_value=-6, max_value=6))
def test_power_laws(a, n):
    assert a ** n * a ** (-n) == ONE
    assert a ** (n + 1) == a ** n * a


@settings(max_examples=120, deadline=None)
@given(cyclos)
def test_encode_round_trips(a):
    assert parse_cyclo(a.encode()) == a
