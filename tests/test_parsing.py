"""Expression grammar: precedence, associativity, errors, and round trips."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from enricert.errors import ParseError
from enricert.field import Cyclo, ONE, SQRT_M1, ZETA8
from enricert.parsing import MAX_DIGITS, MAX_NESTING, parse_expression
from enricert.poly import MPoly, RatFunc

from _helpers import (
    WELL_FORMED_EXPRESSIONS, general_ratfunc_arithmetic, nonzero_mpoly, outcome, rand_cyclo,
    rand_mpoly,
)


def const(value):
    return RatFunc.const(value)


def test_literals():
    assert parse_expression("7") == const(7)
    assert parse_expression("i") == const(SQRT_M1)
    assert parse_expression("zeta8") == const(ZETA8)
    assert parse_expression("i^2") == const(-1)
    assert parse_expression("zeta8^2") == const(SQRT_M1)
    assert parse_expression("zeta8^8") == const(1)


def test_variables_and_case():
    # w and W are distinct variables
    assert parse_expression("w") != parse_expression("W")
    assert parse_expression("y*z") == RatFunc.var("y") * RatFunc.var("z")


def test_precedence():
    assert parse_expression("2+3*4") == const(14)
    assert parse_expression("(2+3)*4") == const(20)
    assert parse_expression("2*3^2") == const(18)
    # unary minus binds looser than ^
    assert parse_expression("-3^2") == const(-9)
    assert parse_expression("(-3)^2") == const(9)


def test_division_left_associative():
    assert parse_expression("8/4/2") == const(1)
    y = RatFunc.var("y")
    z = RatFunc.var("z")
    w = RatFunc.var("w")
    assert parse_expression("w/y/z") == w / (y * z)
    assert parse_expression("w/(y/z)") == w * z / y


def test_subtraction_left_associative():
    assert parse_expression("10-4-3") == const(3)


def test_unary_sign_chains():
    assert parse_expression("--5") == const(5)
    assert parse_expression("-+-5") == const(5)
    assert parse_expression("+5") == const(5)


def test_negative_exponent():
    y = RatFunc.var("y")
    assert parse_expression("y^-2") == const(1) / (y * y)
    assert parse_expression("y^+2") == y * y
    assert parse_expression("2^-3") == const(Fraction(1, 8))


def test_exponent_is_bounded_by_the_degree_cap():
    # checked before the power is taken: a constant base would be multiplied
    # out |n| times
    started = time.monotonic()
    with pytest.raises(ParseError, match="exceeds the degree cap") as info:
        parse_expression("zeta8^100000000")
    assert time.monotonic() - started < 1.0
    assert info.value.position == 6
    with pytest.raises(ParseError) as info:
        parse_expression("y^-65")
    assert info.value.position == 2
    assert parse_expression("zeta8^64") == 1
    assert parse_expression("zeta8^-64") == 1


def test_huge_integer_literal_is_a_positioned_parse_error():
    with pytest.raises(ParseError, match="5000 digits is too long") as info:
        parse_expression("y + " + "7" * 5000 + "*w")
    assert info.value.position == 4


@pytest.mark.parametrize("text, position", [
    ("((10^64)^64)^2", 12),
    (f"({10 ** 430})^10", 433),
    ("(1/(10^64)^64)^2", 14),
    (f"({10 ** 100}*y)^50", 105),
    (f"({10 ** 100}*y)^-50", 105),
    # y times 800 factors 9^1088, of 1,039 digits each
    ("y*" + "*".join(["((9^64)^17)"] * 800), 49),
    (f"1/{10 ** 2200} + 1/{10 ** 2200 + 1}", 2204),
    (f"1/{10 ** 2200} - 1/{10 ** 2200 + 1}", 2204),
    (f"1/({10 ** 2200}*y) + 1/({10 ** 2200 + 1}*y)", 2208),
    (f"{10 ** 2200}/(1/{10 ** 2200})", 2201),
    ("1 + 1 + 1 + " + "9" * 4300, 10),
], ids=[
    "constant-square", "one-over", "denominator", "variable", "negative-exponent",
    "product-chain", "sum", "difference", "sum-over-y", "quotient", "sum-after-small-terms",
])
def test_a_power_with_a_coefficient_past_the_digit_bound_is_refused(text, position):
    # A power is refused at its ^ before it is computed, and a +, -, * or /
    # at its operator once computed; 10^4300 has one digit too many.  A
    # chain of products stops at its fifth factor, 5,192 digits in.
    with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits") as info:
        parse_expression(text)
    assert info.value.position == position


def test_a_long_sum_is_refused_at_its_first_term_past_the_digit_bound():
    # y/d_1 + z + y/d_2 + z^2 + ...: the coefficient of y is the sum of the
    # 1/d_k, whose denominator grows by about 200 digits a term; the z^k add
    # distinct keys.  The reference finds the first + whose partial sum has
    # a numerator or denominator of more than MAX_DIGITS digits.
    dens = [10 ** 200 + 7 * k for k in range(1, 40)]
    pieces, partial, first = [], Fraction(0), None
    for k, d in enumerate(dens, start=1):
        pieces.append(f"y/{d}")
        partial += Fraction(1, d)
        if first is None and max(abs(partial.numerator), partial.denominator) >= 10 ** MAX_DIGITS:
            first = len(pieces) - 1
        pieces.append(f"z^{k}")
    text = " + ".join(pieces)
    plus = [i for i, ch in enumerate(text) if ch == "+"]
    assert first is not None and first >= 10
    with pytest.raises(ParseError, match=f"sum would have a coefficient of more than {MAX_DIGITS}") as info:
        parse_expression(text)
    # the + before the piece whose sum first passes the bound
    assert info.value.position == plus[first - 1]


def _monomial_sum(n):
    """n distinct monomials y^a*z^b*A^c within the degree cap, joined by +."""
    exponents = ((a, b, c) for a in range(65) for b in range(65 - a) for c in range(65 - a - b))
    return "+".join(f"y^{a}*z^{b}*A^{c}" for (a, b, c), _ in zip(exponents, range(n)))


def test_a_sum_parses_in_time_linear_in_its_terms():
    # each + adds its summand in place; copying the running sum at each +
    # made the time quadratic, about 16 times as long for 4n terms
    def best_of_three(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse_expression(text)
            times.append(time.perf_counter() - start)
        return min(times)

    n = 2000
    short, long = _monomial_sum(n), _monomial_sum(4 * n)
    assert len(parse_expression(long).num.support()) == 4 * n
    assert best_of_three(long) < 8 * best_of_three(short)


_SUMMANDS = ["y", "3*y^2", "y^2", "i*z", "z/y", "1/2", "A*y", "y^2*A", "zeta8", "w"]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(_SUMMANDS)), min_size=1, max_size=12))
@example([("-", "y"), ("+", "z/y"), ("-", "z/y"), ("+", "y"), ("+", "3*y^2")])
@example([("-", "3*y^2"), ("+", "y"), ("-", "y"), ("+", "y^2"), ("+", "y")])
def test_a_sum_has_the_terms_and_order_of_the_chain_of_ratfunc_sums(summands):
    # a key that cancels is removed and comes back at the end, and a
    # summand that is not a polynomial ends the run of in-place additions
    text = "y^2 " + " ".join(f"{op} {s}" for op, s in summands)
    expected = parse_expression("y^2")
    for op, s in summands:
        rhs = parse_expression(s)
        expected = expected + rhs if op == "+" else expected - rhs
    assert outcome(parse_expression, text) == outcome(lambda: expected)


def test_a_power_within_the_digit_bound_parses():
    assert parse_expression("(10^64)^64") == const(10 ** 4096)
    assert parse_expression(f"({10 ** 1433})^3") == const(10 ** 4299)
    assert parse_expression("(1/2)^-64") == const(2 ** 64)
    assert parse_expression("(10^64)^64*10") == const(10 ** 4097)


def test_nesting_up_to_the_bound_parses():
    y = RatFunc.var("y")
    assert parse_expression("(" * MAX_NESTING + "y" + ")" * MAX_NESTING) == y
    assert parse_expression("-" * MAX_NESTING + "y") == y
    half = MAX_NESTING // 2
    assert parse_expression("(-" * half + "y" + ")" * half) == y


@pytest.mark.parametrize(
    "text,position",
    [
        ("(" * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1), MAX_NESTING),
        ("(" * 3000 + "y" + ")" * 3000, MAX_NESTING),
        ("-" * 5000 + "y", MAX_NESTING),
        ("y + " + "-(" * MAX_NESTING + "y" + ")" * MAX_NESTING, 4 + MAX_NESTING),
    ],
    ids=["one-over", "parens-3000", "signs-5000", "mixed"],
)
def test_nesting_past_the_bound_is_a_positioned_parse_error(text, position):
    # the deep ones exhaust the interpreter's recursion limit unbounded
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels") as info:
        parse_expression(text)
    assert info.value.position == position


def test_whitespace_insensitive():
    a = parse_expression("i*w / (y^2*z^3)")
    b = parse_expression("  i * w/( y ^2 * z^ 3 ) ")
    assert a == b


def test_fractional_coefficients():
    got = parse_expression("3/2*zeta8*y")
    want = RatFunc.var("y") * const(ZETA8 * Fraction(3, 2))
    assert got == want


@pytest.mark.parametrize(
    "text,fragment,position",
    [
        ("w**y", "expected a value", 2),
        ("2*", "expected a value", 2),
        ("(2+3", "expected ')'", 4),
        ("y^x", "expected integer exponent", 2),
        ("3/0", "division by zero", 1),
        ("0^-2", "zero raised to a negative power", 4),
        ("q + 1", "unknown variable 'q'", 0),
        ("2 $ 3", "unexpected character '$'", 2),
        ("2 3", "trailing input", 2),
        ("", "expected a value", 0),
        # str.isdigit holds for these, but literals are ASCII digits only
        ("y^\u00b2", "unexpected character '\u00b2'", 2),
        ("\u00b2", "unexpected character '\u00b2'", 0),
        ("\u0663*y", "unexpected character '\u0663'", 0),
    ],
)
def test_errors_carry_positions(text, fragment, position):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    err = info.value
    assert fragment in str(err)
    assert err.position == position
    # the bare message omits the position suffix so wrappers can re-attach it
    assert "(at position" not in err.message


def test_division_by_zero_polynomial():
    # y - y simplifies to zero before the division applies
    with pytest.raises(ParseError, match="division by zero"):
        parse_expression("w/(y-y)")


def test_map_coordinate_round_trips():
    samples = [
        "i*w / (y^2*z^3)",
        "zeta8*y^3*w / z^4",
        "w*y^3 / z^3",
        "zeta8*W / Z^2",
        "-W",
        "y^2 / z",
        "1/y",
    ]
    for text in samples:
        value = parse_expression(text)
        assert parse_expression(str(value)) == value


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
cyclos = st.builds(Cyclo, fractions, fractions, fractions, fractions)


@settings(max_examples=120, deadline=None)
@given(cyclos)
def test_constant_round_trip(c):
    assert parse_expression(str(const(c))) == const(c)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_polynomial_round_trip(seed):
    rng = random.Random(seed)
    p = rand_mpoly(rng, names=("w", "y", "z", "A"), max_terms=4, max_exp=3, span=3)
    r = RatFunc(p, MPoly.const(ONE))
    assert parse_expression(str(r)) == r


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_rational_round_trip(seed):
    rng = random.Random(seed)
    num = rand_mpoly(rng, names=("y", "z"), max_terms=3, max_exp=3, span=3)
    den = nonzero_mpoly(rng, names=("y", "z"), max_terms=2, max_exp=2, span=3)
    r = RatFunc(num, den)
    assert parse_expression(str(r)) == r


def _outcome(text):
    return outcome(parse_expression, text)


def _general_outcome(text):
    """The outcome with every product, inverse and power the general RatFunc
    body: the reference for the single-term (Laurent-term) path."""
    with general_ratfunc_arithmetic():
        return _outcome(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(WELL_FORMED_EXPRESSIONS)
# products, quotients and powers just over the degree cap, in the numerator
# and in the denominator, and the zero divisors
@example("y^40*y^25")
@example("y^40*y^24")
@example("1/y^40/z^25")
@example("(y^2/z)^33")
@example("(y^2/z)^-33")
@example("(y/z^2)^-32")
@example("(0*y^64)^64*y^64")
@example("w/(0*y)")
@example("(y-y)^-1")
@example("0^-2")
@example("0^0")
@example("(i*w/(y^2*z^3))^-8*(y^2*z^3)^8")
def test_the_laurent_term_path_matches_the_ratfunc_evaluator(text):
    # the same pair, or the same exception with the same text
    assert _outcome(text) == _general_outcome(text)


@pytest.mark.parametrize("text", [
    "i*w/(y^2*z^3)", "zeta8*y^3*w/z^4", "w*y^3/z^3", "i*W/(Y^2*Z^2)", "-W",
    # cancelled before the next product, so no intermediate passes the cap
    "y^64/y^64*y^64", "(y*z/y)^64", "(z^2/(y*z))^-64",
])
def test_a_monomial_expression_takes_no_ratfunc_product(monkeypatch, text):
    # no product of polynomials: RatFunc multiplies single terms by their keys
    expected = _general_outcome(text)

    def refuse(self, other):
        raise AssertionError(f"MPoly product while parsing {text!r}")

    monkeypatch.setattr(MPoly, "__mul__", refuse)
    assert _outcome(text) == expected
