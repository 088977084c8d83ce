"""Arithmetic in the degree-4 cyclotomic field."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from enricert import (
    Cyclo,
    ONE,
    SQRT_M1,
    ZERO,
    ZETA8,
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
    sqrt2 = Cyclo(0, 1, 0, -1)
    assert sqrt2 * sqrt2 == 2
    assert sqrt2 == ZETA8 - ZETA8 ** 3
    assert ZETA8 * sqrt2 == ONE + SQRT_M1


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


def test_parse_accepts_signed_integers_and_fractions():
    assert parse_cyclo("+1") == ONE
    assert parse_cyclo(" -3/6 ") == Cyclo(Fraction(-1, 2))
    assert parse_cyclo("0, 0, -1/2") == Cyclo(0, 0, Fraction(-1, 2))
    assert parse_cyclo("0007/0014") == Cyclo(Fraction(1, 2))


@pytest.mark.parametrize(
    "text, position",
    [
        ("1.5", 0), ("1_000", 0), ("1e5", 0), ("1E5", 0), ("1e5000,0,0,0", 0),
        (".5", 0), ("1/", 0), ("/2", 0), ("1/-2", 0), ("--1", 0), ("1 2", 0),
        ("1 / 2", 0), ("0x10", 0), ("١", 0), ("inf", 0), ("nan", 0),
        ("1,,0", 2), ("0,2.5", 2), ("0,1,1/0", 4),
    ],
)
def test_parse_rejects_undocumented_forms(text, position):
    # Only n and n/d are documented, although Fraction() also takes
    # decimals, digit separators, exponents and non-ASCII digits.
    with pytest.raises(ParseError) as info:
        parse_cyclo(text)
    assert info.value.position == position


def test_parse_rejects_overlong_literals_at_their_position():
    with pytest.raises(ParseError) as info:
        parse_cyclo("0,1/" + "1" * 4301)
    assert info.value.position == 4
    assert "4301 digits" in info.value.message
    with pytest.raises(ParseError) as info:
        parse_cyclo("0, -" + "2" * 5000 + "/3")
    assert info.value.position == 4
    assert parse_cyclo("9" * 4300) == Cyclo(int("9" * 4300))


def test_an_integer_past_the_string_limit_prints_as_its_exact_digit_count():
    # str() of an int over 4,300 digits raises ValueError; encode() and str()
    # print it as its digit count instead, at both sides of each power of 10
    big = 10 ** 5000
    assert Cyclo(big - 1).encode() == "<5000-digit integer>,0,0,0"
    assert Cyclo(big).encode() == "<5001-digit integer>,0,0,0"
    assert Cyclo(0, -big).encode() == "0,-<5001-digit integer>,0,0"
    assert Cyclo(Fraction(3, big + 1)).encode() == "3/<5001-digit integer>,0,0,0"
    assert Cyclo(Fraction(-(2 ** 20000), 3)).encode() == "-<6021-digit integer>/3,0,0,0"
    assert str(Cyclo(0, big)) == "<5001-digit integer>*zeta8"
    # up to the limit, the digits themselves
    assert Cyclo(10 ** 4299).encode() == str(10 ** 4299) + ",0,0,0"


# -- differential tests against a plain Fraction 4-tuple reference --------------


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def ref_mul(a, b):
    prod = [Fraction(0)] * 8
    for i in range(4):
        for j in range(4):
            prod[i + j] += a[i] * b[j]
    return tuple(prod[k] - prod[k + 4] for k in range(4))


def ref_inverse(a):
    """Solve a * x = 1 by Gauss-Jordan on the multiplication-by-a matrix."""
    basis = [tuple(Fraction(int(i == k)) for i in range(4)) for k in range(4)]
    columns = [ref_mul(a, e) for e in basis]
    rows = [[columns[j][i] for j in range(4)] + [Fraction(int(i == 0))] for i in range(4)]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][4] for i in range(4))


def ref_pow(a, n):
    base = a if n >= 0 else ref_inverse(a)
    result = tuple(Fraction(int(i == 0)) for i in range(4))
    for _ in range(abs(n)):
        result = ref_mul(result, base)
    return result


def ref_encode(a):
    return ",".join(str(c) for c in a)


def ref_str(a):
    parts = []
    for c, name in zip(a, ["", "zeta8", "i", "zeta8^3"]):
        if c == 0:
            continue
        if name == "":
            parts.append(str(c))
        elif c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def assert_canonical(x):
    assert x.den > 0
    assert gcd(*x.numerators, x.den) == 1
    assert x.coords == tuple(Fraction(n, x.den) for n in x.numerators)


# The coordinates behind nonzero_cyclos and large_nonzero_cyclos, kept as
# tuples so the reference never goes through Cyclo.
small_coords = st.tuples(fractions, fractions, fractions, fractions)
large_coords = st.tuples(large_fractions, large_fractions, large_fractions, large_fractions)
any_coords = st.one_of(small_coords, large_coords)
nonzero_coords = any_coords.filter(any)


@settings(max_examples=150, deadline=None)
@given(any_coords, any_coords)
def test_ring_operations_match_the_fraction_reference(a, b):
    x, y = Cyclo(*a), Cyclo(*b)
    assert x.coords == a
    for got, want in (
        (x + y, ref_add(a, b)),
        (x - y, ref_add(a, ref_neg(b))),
        (-x, ref_neg(a)),
        (x * y, ref_mul(a, b)),
    ):
        assert_canonical(got)
        assert got.coords == want
        assert got == Cyclo(*want)


@settings(max_examples=150, deadline=None)
@given(nonzero_coords)
def test_inverse_matches_the_fraction_reference(a):
    inv = Cyclo(*a).inverse()
    assert_canonical(inv)
    assert inv.coords == ref_inverse(a)


@settings(max_examples=100, deadline=None)
@given(nonzero_coords, st.integers(min_value=-9, max_value=9))
def test_power_matches_the_fraction_reference(a, n):
    p = Cyclo(*a) ** n
    assert_canonical(p)
    assert p.coords == ref_pow(a, n)


@settings(max_examples=150, deadline=None)
@given(any_coords)
def test_text_matches_the_fraction_reference(a):
    x = Cyclo(*a)
    assert x.encode() == ref_encode(a)
    assert str(x) == ref_str(a)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(nonzero_cyclos, large_nonzero_cyclos),
    st.integers(min_value=-50, max_value=50).filter(bool),
)
def test_equal_values_have_one_form(x, k):
    scaled = Cyclo(*(c * k for c in x.coords)) / k
    through_text = parse_cyclo(x.encode())
    for y in (scaled, through_text, (x * x) / x, x.inverse().inverse()):
        assert_canonical(y)
        assert y == x
        assert hash(y) == hash(x)


def test_canonical_form_examples():
    half = Cyclo(Fraction(2, 4))
    assert half == Cyclo(1) / 2 == parse_cyclo("2/4") == Cyclo(3) * Fraction(1, 6)
    assert hash(half) == hash(Cyclo(1) / 2)
    assert (half.numerators, half.den) == ((1, 0, 0, 0), 2)
    x = Cyclo(Fraction(2, 6), Fraction(-4, 3), 0, Fraction(8, 9))
    assert (x.numerators, x.den) == ((3, -12, 0, 8), 9)
    assert (ZERO.numerators, ZERO.den) == ((0, 0, 0, 0), 1)
    assert ZETA8 - ZETA8 == ZERO and (ZETA8 - ZETA8).den == 1


def test_rational_elements_hash_like_their_value():
    assert Cyclo(3) == 3 and hash(Cyclo(3)) == hash(3)
    assert {Cyclo(3): 1}.get(3) == 1
    assert {3: 1}.get(Cyclo(3)) == 1
    assert hash(Cyclo(Fraction(-7, 2))) == hash(Fraction(-7, 2))
    assert {Fraction(1, 2): "half"}[Cyclo(1) / 2] == "half"
    assert hash(ZERO) == hash(0)


@settings(max_examples=150, deadline=None)
@given(st.one_of(fractions, large_fractions))
def test_rational_hash_agrees_with_equality(q):
    x = Cyclo(q)
    assert x == q
    assert hash(x) == hash(q)
    assert {q: True}.get(x)


def test_division_by_one_returns_the_dividend():
    # the value, not the object: division by one takes the general path
    x = Cyclo(Fraction(2, 3), 1, 0, -5)
    assert x / ONE == x
    assert x / 1 == x
    assert x / Fraction(1) == x
    assert x / SQRT_M1 == x * SQRT_M1.inverse()
