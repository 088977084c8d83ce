"""Sparse multivariate polynomials and rational functions over Q(zeta_8).

Every polynomial lives in one ring, Q(zeta_8)[w, y, z, W, Y, Z, A..F, alpha],
and this module owns its fixed variable layout, VARIABLES.  A polynomial is
a dict from packed exponent vectors to nonzero field coefficients.  Zero
coefficients are never stored, so equality is dict equality.

Packed exponents.  Each term's exponent vector e (slot i holds the exponent
of VARIABLES[i]) is one int, its key.  Each slot has an 8-bit lane, slot 0
(w) in the highest lane and slot 12 (alpha) in the lowest, and the total
degree |e| sits above all the lanes:

    key(e) = |e| << 104  +  sum_i e_i << 8 * (12 - i)

The key compares as the pair (|e|, e) does lexicographically, because no
lane overflows into the next, so graded-lex order is plain int order: the
leading term is max(terms) and sorted(..., reverse=True) is display order.
The encoding is linear, key(e + f) = key(e) + key(f), so a product's key is
the sum of its factors' keys and a monomial substitution maps keys by adding
integer multiples of fixed keys.  DEGREE_CAP (64) bounds every stored total
degree, so every lane holds at most 64 and its top bit is free.  That bit is
the lane's guard: (e | GUARD) - f borrows within each lane and never across
lanes, and leaves the guard of lane i set exactly when e_i >= f_i.  One
subtraction thus tests whether x^f divides x^e (exact division) and selects
the smaller lane of two keys (the monomial content).  Only this module
knows the layout: exponent tuples come in through const, var, monomial and
sum_monomials, and go out through support and term_items.  The read-outs
parameter_degree and laurent_difference work on the keys themselves.

Rational functions are held as numerator/denominator pairs.  Simplification
is deliberately modest: common monomial content is cancelled, the denominator
is scaled to have leading coefficient 1, and full cancellation is attempted
only through exact division (which either succeeds completely or leaves the
pair untouched).  A polynomial over a monomial has one simplified form, with
no common monomial content and denominator coefficient 1, so no division is
attempted for it, and two such pairs are equal exactly when they are the
same pair.  Any other equality is decided by cross-multiplication, so it
never depends on how much simplification happened.

Powers.  MPoly.__pow__ is the chain P^k = P^(k-1) * P, and a multi-term
polynomial is powered that way everywhere: RatFunc.__pow__ and both paths
of MPoly.substitute, which cache each value's chain, take it too.  Repeated
multiplication suits sparse polynomials better than repeated squaring
(Fateman, "On the computation of powers of sparse polynomials", 1974): for
P = (y + z + A + ... + F)^2, 36 terms, P^4 = P^3 * P visits 61,776 term
pairs and (P^2)^2 108,900.  The monomial path thus forms each power product
the term-by-term path forms.  The latter's products also carry the
monomial factors and the unassigned variables, so it can meet the degree
cap where the monomial path meets the size cap; the hand-over on a cap
error keeps its error text.

A fixed total-degree cap of DEGREE_CAP halts runaway intermediate growth
with a diagnostic error instead of letting a buggy reduction loop spin
forever.  The degree cap does not bound the work of a product, since a
polynomial under it can still have millions of terms.  MAX_TERM_PAIRS
bounds that work, the number of term pairs one schoolbook product visits,
and a product over it raises SizeCapError.

Nearly every product in a run has a single-term operand: the Horikawa
models and their automorphisms are monomial.  Once both caps are checked,
such a product is a key shift plus a scale.  c * x^f times the sum of
c_e * x^e is the sum of (c_e * c) * x^(e + f), one term per term of the
other operand, in the order the schoolbook loop meets them.  Adding key(f)
is injective, so no two terms collide and no lookup is needed.  Q(zeta_8)
is a field and has no zero divisors, so c_e * c is nonzero and no zero
filter is needed.  When c is 1 the coefficients are kept as they are.  In
the same way a RatFunc over the constant 1 is already simplified, so
construction keeps it, and substituting into it substitutes the numerator
alone.

RatFunc arithmetic skips steps whose result is already known, and returns
the pair, term order included, that the general path returns.  Subtraction
is a + (-b).  Subtracting an identical simplified pair is zero, as the
general path finds by adding -num to num over the shared denominator.
Negation negates the numerator of a simplified pair, which changes no key
and no divisibility, so it is simplified already.  Neither skips a cap
error: the general subtraction multiplies nothing, and the general negation
repeats only the divisibility tests that simplified the pair when it was
built.  A product, inverse or power of values that are one term over one
term, c * x^n / x^d, as the parser and the monomial maps make them, is built
from the keys: the product adds keys and cancels the common content of the
new pair with _lane_min, the inverse swaps the keys (a simplified pair has
no common content) and moves 1/c to the numerator, and the k-th power
multiplies the keys by k.  The denominator keeps coefficient 1.  The product
and power first take the test the general path's products take, each total
degree at most DEGREE_CAP (for a power, the last product's); over it they
take the general path, which raises its own error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import DegreeCapError, IndivisibleError, SizeCapError
from .field import Cyclo, ONE, ZERO

Exponents = Tuple[int, ...]
Scalar = Union[Cyclo, Fraction, int]

#: Largest total degree a polynomial product may reach.
DEGREE_CAP = 64

#: Largest number of term pairs, |a| * |b|, one product a * b may visit.
#: The built-in run stays far below it: its largest product has 12 pairs.
MAX_TERM_PAIRS = 2 ** 16

#: The fixed variable layout: slot i of every exponent vector holds the
#: exponent of VARIABLES[i].  These are the ambient coordinates of the double
#: plane model (w, y, z), of its K3 cover (W, Y, Z), and the formal parameters.
VARIABLES = ("w", "y", "z", "W", "Y", "Z", "A", "B", "C", "D", "E", "F", "alpha")
PARAMETERS = frozenset(VARIABLES[6:])
_NVARS = len(VARIABLES)
_SLOTS = {n: i for i, n in enumerate(VARIABLES)}

#: The layout under its older name, which ``perfbench/docgen.py`` imports and
#: hands to MPoly.var.
TABLE = VARIABLES

# The packed key layout (see the module docstring).  _SHIFTS[i] is the lowest
# bit of slot i's lane and _DEG that of the total degree; _UNITS[i] is the
# key of VARIABLES[i] itself.  _ONES has a 1 in every lane and _GUARD the top
# bit of every lane.
_BITS = 8
_LANE = (1 << _BITS) - 1
_SHIFTS = tuple(_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
_DEG = _BITS * _NVARS
_UNITS = tuple((1 << s) | (1 << _DEG) for s in _SHIFTS)
_ONES = sum(1 << s for s in _SHIFTS)
_GUARD = _ONES << (_BITS - 1)
# Every lane, without the degree field.
_LANES = (1 << _DEG) - 1
# Every lane at 127, above any stored exponent: the start of a minimum.
_LANE_TOP = _GUARD - _ONES
# The lanes of the PARAMETERS, the lowest ones.
_PARAMETER_LANES = (1 << _BITS * len(PARAMETERS)) - 1


def slot(name: str) -> int:
    """The exponent-vector slot of the variable ``name``."""
    try:
        return _SLOTS[name]
    except KeyError:
        raise KeyError(f"unknown variable {name!r}") from None


def _unpack(key: int) -> Exponents:
    # one byte per lane, slot 0 in the highest
    return tuple((key & _LANES).to_bytes(_NVARS, "big"))


def _lane_min(keys: Iterable[int], m: int = _LANE_TOP) -> int:
    """The slotwise minimum of ``m`` and the lanes of ``keys``, lanes only.

    Every lane must be below the guard bit.  The guard survives the
    subtraction (m | GUARD) - k in the lanes where m_i >= k_i, and those
    lanes take k_i.  The degree field of a key never reaches the lanes.
    """
    for k in keys:
        if not m:
            break
        d = ((m | _GUARD) - k) & _GUARD
        if d:
            # 0xFF in each lane whose guard is set
            m ^= (m ^ k) & ((d << 1) - (d >> (_BITS - 1)))
    return m


def _with_degree(lanes: int) -> int:
    """The key of the lanes ``lanes``, whose total must be below 255.

    Each lane is worth 256 = 1 (mod 255), so the lanes total lanes % 255.
    """
    return lanes + ((lanes % _LANE) << _DEG)


def _wrap(terms: Dict[int, Cyclo]) -> "MPoly":
    """An MPoly over ``terms`` as they are: keys valid, no zero coefficient."""
    p = object.__new__(MPoly)
    object.__setattr__(p, "terms", terms)
    return p


class MPoly:
    """Immutable sparse polynomial over Q(zeta_8).

    ``terms`` maps packed exponent keys to coefficients; the constructor
    drops zero coefficients.  Build polynomials from exponent vectors with
    const, var and monomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Cyclo]):
        object.__setattr__(
            self, "terms", {e: c for e, c in terms.items() if not c.is_zero()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("MPoly instances are immutable")

    def __reduce__(self):
        return MPoly, (self.terms,)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return _wrap({})

    @staticmethod
    def const(c: Scalar) -> "MPoly":
        return MPoly({0: Cyclo.coerce(c)})

    @staticmethod
    def var(name: str, table: Tuple[str, ...] = TABLE) -> "MPoly":
        """The variable ``name`` as a polynomial.

        The optional ``table`` is kept for ``perfbench/docgen.py``, the
        benchmark's frozen document generator, which passes TABLE; any
        other value is a ValueError.
        """
        if table is not TABLE:
            raise ValueError("the only variable layout is TABLE")
        return _wrap({_UNITS[slot(name)]: ONE})

    @staticmethod
    def monomial(exponents: Mapping[str, int], coeff: Scalar = 1) -> "MPoly":
        """coeff times the product of name^k; a lane holds at most DEGREE_CAP."""
        return MPoly.sum_monomials([(exponents, coeff)])

    @staticmethod
    def sum_monomials(
        entries: Iterable[Tuple[Mapping[str, int], Scalar]]
    ) -> "MPoly":
        """The sum of monomial(exponents, coeff) over ``entries``, in one dict,
        with the terms and term order of adding each to a running sum."""
        terms: Dict[int, Cyclo] = {}
        for exponents, coeff in entries:
            key = degree = 0
            for name, k in exponents.items():
                i = slot(name)
                if k < 0:
                    raise ValueError(f"negative exponent {k} of {name}")
                key += k * _UNITS[i]
                degree += k
            if degree > DEGREE_CAP:
                raise DegreeCapError(
                    f"monomial of total degree {degree} exceeds cap {DEGREE_CAP}"
                )
            c = Cyclo.coerce(coeff)
            prev = terms.get(key)
            if prev is not None:
                c = prev + c
            if c.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = c
        return _wrap(terms)

    def _coerce(self, x) -> "MPoly":
        if isinstance(x, MPoly):
            return x
        if isinstance(x, (Cyclo, Fraction, int)):
            return MPoly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to MPoly")

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def degree_in(self, name: str) -> int:
        s = _SHIFTS[slot(name)]
        return max(((e >> s) & _LANE for e in self.terms), default=0)

    def parameter_degree(self) -> int:
        """The largest total degree of a term in the PARAMETERS.

        They are the seven lowest lanes, which total at most DEGREE_CAP,
        so a term's lane sum is its masked key modulo 255 (see _with_degree).
        """
        return max(((e & _PARAMETER_LANES) % _LANE for e in self.terms), default=0)

    def variables(self) -> Tuple[str, ...]:
        used = 0
        for e in self.terms:
            used |= e
        return tuple(n for n, k in zip(VARIABLES, _unpack(used)) if k)

    def support(self) -> Tuple[Exponents, ...]:
        """The exponent vectors, leading term first."""
        return tuple(_unpack(e) for e in sorted(self.terms, reverse=True))

    def coefficients(self) -> Iterable[Cyclo]:
        """The coefficients, unsorted."""
        return self.terms.values()

    def height(self) -> int:
        """The largest absolute value of a coefficient's numerator or
        denominator, 0 for zero.  One pass over them, unsorted."""
        h = 0
        for c in self.terms.values():
            ch = c.height()
            if ch > h:
                h = ch
        return h

    def term_items(self) -> Tuple[Tuple[Exponents, Cyclo], ...]:
        """The (exponent vector, coefficient) pairs, leading term first."""
        terms = self.terms
        return tuple((_unpack(e), terms[e]) for e in sorted(terms, reverse=True))

    def coefficient(self, exponents: Mapping[str, int]) -> "MPoly":
        """The coefficient of the given geometric monomial, itself an MPoly.

        Only the named variables are matched; all remaining variables
        (typically the parameters) stay in the returned polynomial.
        """
        mask = target = 0
        for name, k in exponents.items():
            i = slot(name)
            if not 0 <= k <= DEGREE_CAP:
                return MPoly.zero()
            mask |= _LANE << _SHIFTS[i]
            target += k * _UNITS[i]
        lanes = target & mask
        # distinct matching keys stay distinct once the named lanes are cleared
        return _wrap(
            {e - target: c for e, c in self.terms.items() if e & mask == lanes}
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if a and b and (max(a) >> _DEG) + (max(b) >> _DEG) > DEGREE_CAP:
            # the first product term over the cap, in the order of the loop below
            for e1 in a:
                for e2 in b:
                    degree = (e1 + e2) >> _DEG
                    if degree > DEGREE_CAP:
                        raise DegreeCapError(
                            f"product term of total degree {degree} exceeds cap {DEGREE_CAP}"
                        )
        if len(a) * len(b) > MAX_TERM_PAIRS:
            raise SizeCapError(
                f"product of {len(a)} by {len(b)} terms exceeds cap "
                f"{MAX_TERM_PAIRS} term pairs"
            )
        # A single-term operand shifts the other's keys and scales its
        # coefficients, in the loop's order; see the module docstring.
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((f, c),) = b.items()
            if c == ONE:
                return _wrap({e + f: v for e, v in a.items()})
            return _wrap({e + f: v * c for e, v in a.items()})
        out: Dict[int, Cyclo] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        """The chain P^k = P^(k-1) * P; see the module docstring."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("MPoly exponent must be a nonnegative integer")
        result = _ONE_POLY
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c: Scalar) -> "MPoly":
        cc = Cyclo.coerce(c)
        return MPoly({e: cc * v for e, v in self.terms.items()})

    def partial(self, name: str) -> "MPoly":
        i = slot(name)
        s, unit = _SHIFTS[i], _UNITS[i]
        out: Dict[int, Cyclo] = {}
        for e, c in self.terms.items():
            k = (e >> s) & _LANE
            if k:
                # distinct keys stay distinct, and c * k is nonzero
                out[e - unit] = c * k
        return _wrap(out)

    # -- substitution --------------------------------------------------------

    def substitute(self, assignment: Mapping[str, object]) -> "RatFunc":
        """Evaluate with variables replaced by rational functions.

        Unassigned variables map to themselves, making this the identity on
        untouched slots.  The substitution is a ring homomorphism; the result
        is a RatFunc because assigned values may have denominators.

        Two paths compute it.  When every assigned value has a monomial
        denominator, the monomial path maps each term's key linearly,
        multiplies its coefficient by cached powers of the values and sums
        the terms into one polynomial over one monomial.  Every other
        assignment takes the term-by-term path, which multiplies and adds
        one RatFunc per term.  Both paths return the same num/den pair: see
        _substitute_monomials, which also names the cases it hands over.
        """
        values = self._values(assignment)
        result = self._substitute_monomials(values)
        return self._substitute_terms(values) if result is None else result

    def _values(self, assignment: Mapping[str, object]) -> Dict[int, "RatFunc"]:
        """The assignment as slot -> RatFunc."""
        return {slot(name): as_ratfunc(v) for name, v in assignment.items()}

    def _substitute_monomials(
        self, values: Mapping[int, "RatFunc"]
    ) -> Optional["RatFunc"]:
        """The monomial path of substitute, or None where it does not apply.

        It applies when every value has a monomial denominator, P_i / x^b_i.
        A single-term value c * x^a / x^b moves the exponent of its slot i
        onto a - b, and any other value's P_i enters as a factor: a term
        c0 * x^e maps to c0 * prod(c_i^e_i) * prod(P_i^e_i) * x^E, where E
        is e with each assigned slot's exponent moved along a - b, or along
        -b for a polynomial value.  Each value's powers are a chain cached
        per slot, P^k = P^(k-1) * P as in _substitute_terms, and each term's
        product is summed into one dict, with no RatFunc per term.  E may
        have negative entries; the sum of all terms is P / x^M with M the
        most negative entry per slot (or 0), and P without common
        monomial content in any slot of M.  A polynomial over a monomial has
        one simplified form, so this pair, returned as it is, equals the pair
        the term-by-term path returns.

        The key is linear, so key(E) is key(e) plus e_i times the key move
        of each assigned slot i.  Negative entries borrow from the lanes
        above, so a key is read only after adding den_top to every lane.
        Every entry of a term's image lies in [-den_top, num_top], the
        largest degrees of an image before cancellation,
        |e| + sum e_i (deg P_i - 1) and sum e_i |b_i|.  The path hands over
        to _substitute_terms when num_top + den_top reaches a lane's guard
        bit (128), where a biased entry could leave its lane and distinct
        exponents could share a key, and when P or x^M has a total degree
        over DEGREE_CAP, where the other path, which stores every
        polynomial it builds, raises.  A power or product of polynomial
        values over a cap hands over too, so the other path meets it first.
        """
        # (lane shift, powers, key move, deg P, |b|): powers[k] is the
        # factor to the k, each the one before times powers[1]; the factor is
        # P, or for a single term c * x^a the scalar c, and powers is None
        # for c = 1.  _simplify leaves a monic denominator, so b carries
        # coefficient 1.
        monomials = []
        for i, v in values.items():
            num, den = v.num.terms, v.den.terms
            if len(den) != 1:
                return None
            (b,) = den
            a, powers = 0, [None, v.num]
            if len(num) == 1:
                ((a, c),) = num.items()
                powers = None if c == ONE else [None, c]
            monomials.append((_SHIFTS[i], powers, a - b - _UNITS[i],
                              max(num, default=0) >> _DEG, b >> _DEG))
        sums: Dict[int, Cyclo] = {}
        num_top = den_top = 0
        try:
            for e, c in self.terms.items():
                out = e
                num_deg, den_deg = e >> _DEG, 0
                product = None
                for s, powers, move, na, nb in monomials:
                    k = (e >> s) & _LANE
                    if not k:
                        continue
                    out += k * move
                    num_deg += k * (na - 1)
                    den_deg += k * nb
                    if powers is None:
                        continue
                    while len(powers) <= k:
                        powers.append(powers[-1] * powers[1])
                    p = powers[k]
                    if type(p) is MPoly:
                        product = p if product is None else product * p
                    else:
                        c = c * p
                if num_deg > num_top:
                    num_top = num_deg
                if den_deg > den_top:
                    den_top = den_deg
                image = ((0, c),) if product is None else product.scale(c).terms.items()
                for t, v in image:
                    prev = sums.get(out + t)
                    sums[out + t] = v if prev is None else prev + v
        except (DegreeCapError, SizeCapError):
            return None
        if num_top + den_top >= 1 << (_BITS - 1):
            return None
        terms = {e: c for e, c in sums.items() if not c.is_zero()}
        if not terms:
            return RatFunc.zero()
        # min(den_top, den_top + E_j) per slot, whence M = den_top - that
        bias = den_top * _ONES
        lanes = bias - _lane_min((e + bias for e in terms), bias)
        # |M| can pass 254 before the cap test, beyond _with_degree
        den_key = lanes + (sum(_unpack(lanes)) << _DEG)
        # adding den_key keeps the order of the keys, so the largest term of
        # P is the largest key shifted
        if den_key >> _DEG > DEGREE_CAP or (max(terms) + den_key) >> _DEG > DEGREE_CAP:
            return None
        if den_key:
            terms = {e + den_key: c for e, c in terms.items()}
        # P has no content in common with x^M, and x^M has coefficient 1
        return _pair(_wrap(terms), _wrap({den_key: ONE}))

    def _substitute_terms(self, values: Mapping[int, "RatFunc"]) -> "RatFunc":
        """The term-by-term path of substitute: one RatFunc product per factor."""
        total = RatFunc.zero()
        # powers[i][k] = values[i] ** k, each the one before times values[i]
        powers = {i: [RatFunc.const(1)] for i in values}
        for e, c in self.terms.items():
            term = RatFunc.from_poly(MPoly.const(c))
            for i, s in enumerate(_SHIFTS):
                k = (e >> s) & _LANE
                if k == 0:
                    continue
                if i in values:
                    cached = powers[i]
                    while len(cached) <= k:
                        cached.append(cached[-1] * values[i])
                    factor = cached[k]
                else:
                    factor = RatFunc.from_poly(_wrap({k * _UNITS[i]: ONE}))
                term = term * factor
            total = total + term
        return total

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (Cyclo, Fraction, int)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.term_items():
            factors = []
            for name, k in zip(VARIABLES, e):
                if k == 0:
                    continue
                factors.append(name if k == 1 else f"{name}^{k}")
            cs = str(c)
            if factors:
                if cs == "1":
                    cs = ""
                elif cs == "-1":
                    cs = "-"
                elif ("+" in cs[1:]) or ("-" in cs[1:]) or " " in cs:
                    cs = f"({cs})*"
                else:
                    cs = f"{cs}*"
                parts.append(cs + "*".join(factors))
            else:
                parts.append(f"({cs})" if (" " in cs) else cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"MPoly({self})"


_ONE_POLY = MPoly.const(1)
_ONE_TERMS = _ONE_POLY.terms


class RunningSum:
    """A sum of polynomials added in place, so a long sum is not copied per
    summand.  Its terms and term order are those of the chain of MPoly
    additions p1 + p2 + ...: a key that cancels is removed, and appended
    again if it comes back."""

    __slots__ = ("_terms",)

    def __init__(self, first: MPoly):
        self._terms = dict(first.terms)

    def add(self, p: MPoly, negate: bool = False) -> int:
        """Add p, or -p with ``negate``, and return the height (see
        MPoly.height) of the sum's coefficients at the terms of p, the only
        ones that changed."""
        terms = self._terms
        h = 0
        for e, c in p.terms.items():
            if negate:
                c = -c
            prev = terms.get(e)
            if prev is not None:
                c = prev + c
                if c.is_zero():
                    del terms[e]
                    continue
            terms[e] = c
            ch = c.height()
            if ch > h:
                h = ch
        return h

    def poly(self) -> MPoly:
        """The sum, which shares its terms: add nothing to it after this."""
        return _wrap(self._terms)


def exact_divide(p: MPoly, q: MPoly) -> MPoly:
    """Exact quotient p / q, or IndivisibleError carrying the remainder.

    Single-divisor division along graded-lex leading terms.  If p = q * r
    exactly the loop reconstructs r; the first leading term that q's leading
    term fails to divide proves indivisibility, and the current remainder is
    attached to the error as a witness.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    qterms = q.terms
    qe = max(qterms)
    qc_inv = qterms[qe].inverse()
    # the leading keys strictly decrease, so each quotient key is new
    quot: Dict[int, Cyclo] = {}
    rem = p
    while rem.terms:
        e = max(rem.terms)
        # x^qe divides x^e: every lane keeps its guard bit
        if ((e | _GUARD) - qe) & _GUARD != _GUARD:
            raise IndivisibleError(q, rem)
        coeff = rem.terms[e] * qc_inv
        quot[e - qe] = coeff
        rem = rem + _wrap({e - qe: -coeff}) * q
    return _wrap(quot)


def _shift_down(p: MPoly, shift: int) -> MPoly:
    return _wrap({e - shift: c for e, c in p.terms.items()})


def _pair(num: MPoly, den: MPoly) -> "RatFunc":
    """A RatFunc over ``num``/``den``, which _simplify would keep as it is."""
    r = object.__new__(RatFunc)
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "den", den)
    return r


class RatFunc:
    """Quotient of two MPolys."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = self._simplify(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc instances are immutable")

    def __reduce__(self):
        # _simplify returns a simplified pair unchanged
        return RatFunc, (self.num, self.den)

    @staticmethod
    def _simplify(num: MPoly, den: MPoly) -> Tuple[MPoly, MPoly]:
        if den.terms == _ONE_TERMS:
            return num, den
        if num.is_zero():
            return num, _ONE_POLY
        # the common monomial content of num and den; its lanes total at
        # most a stored degree
        shift = _lane_min(den.terms, _lane_min(num.terms))
        if shift:
            shift = _with_degree(shift)
            num, den = _shift_down(num, shift), _shift_down(den, shift)
        terms = den.terms
        lead = terms[max(terms)]
        if lead != ONE:
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
        # A monomial x^M (a constant included) is final here.  Once the
        # shift leaves num a term free of x_j for each x_j in x^M, num is
        # not divisible by x^M, and num divides x^M only as a constant c,
        # where the branch below would return (c, x^M) again.
        if len(terms) == 1:
            return num, den
        try:
            return exact_divide(num, den), _ONE_POLY
        except IndivisibleError:
            pass
        try:
            cofactor = exact_divide(den, num)
            # den = num * cofactor, so num/den = 1/cofactor; renormalize.
            terms = cofactor.terms
            lead = terms[max(terms)]
            if lead != ONE:
                inv = lead.inverse()
                return _ONE_POLY.scale(inv), cofactor.scale(inv)
            return _ONE_POLY, cofactor
        except IndivisibleError:
            return num, den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(MPoly.zero(), _ONE_POLY)

    @staticmethod
    def const(c: Scalar) -> "RatFunc":
        return RatFunc(MPoly.const(c), _ONE_POLY)

    @staticmethod
    def from_poly(p: MPoly) -> "RatFunc":
        return RatFunc(p, _ONE_POLY)

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc.from_poly(MPoly.var(name))

    @staticmethod
    def monomial(exponents: Mapping[str, int], coeff: Scalar = 1) -> "RatFunc":
        """coeff times the product of name^k, k of either sign, built from
        the keys as the simplified pair coeff * x^(k+) / x^(k-); each side
        has total degree at most DEGREE_CAP."""
        num = den = 0
        for name, k in exponents.items():
            if k > 0:
                num += k * _UNITS[slot(name)]
            elif k < 0:
                den -= k * _UNITS[slot(name)]
        degree = max(num, den) >> _DEG
        if degree > DEGREE_CAP:
            raise DegreeCapError(
                f"monomial of total degree {degree} exceeds cap {DEGREE_CAP}"
            )
        c = Cyclo.coerce(coeff)
        if c.is_zero():
            return RatFunc.zero()
        # x^(k+) and x^(k-) share no variable, and x^(k-) has coefficient 1
        return _pair(_wrap({num: c}), _wrap({den: ONE}))

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def height(self) -> int:
        """The larger of the numerator's and the denominator's height."""
        return max(self.num.height(), self.den.height())

    def as_poly(self) -> MPoly:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a polynomial")
        # _simplify makes the denominator monic, so a constant one is 1
        return self.num

    def as_constant(self) -> Optional[Cyclo]:
        """The constant value if num = c * den identically, else None."""
        if self.num.is_zero():
            return ZERO
        terms = self.den.terms
        e = max(terms)
        nc = self.num.terms.get(e)
        if nc is None:
            return None
        c = nc / terms[e]
        return c if self.num == self.den.scale(c) else None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        # negating num changes no key and no divisibility
        return _pair(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        if self.den.terms == other.den.terms and self.num.terms == other.num.terms:
            # the general path adds -num to num over the shared den
            return RatFunc.zero()
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        return as_ratfunc(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = as_ratfunc(other)
        a, b = self.num.terms, other.num.terms
        da, db = self.den.terms, other.den.terms
        if len(a) == len(b) == len(da) == len(db) == 1:
            ((n1, c1),), ((n2, c2),) = a.items(), b.items()
            (d1,), (d2,) = da, db
            n, d = n1 + n2, d1 + d2
            # keys order by degree first
            if max(n, d) >> _DEG <= DEGREE_CAP:
                shift = _with_degree(_lane_min((d,), n & _LANES))
                c = c2 if c1 == ONE else c1 if c2 == ONE else c1 * c2
                return _pair(_wrap({n - shift: c}), _wrap({d - shift: ONE}))
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        num = self.num.terms
        if len(num) == 1 == len(self.den.terms):
            # num and den share no content, so only c moves to the other side
            ((n, c),) = num.items()
            (d,) = self.den.terms
            return _pair(_wrap({d: c if c == ONE else c.inverse()}), _wrap({n: ONE}))
        if not num:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other) -> "RatFunc":
        return self * as_ratfunc(other).inverse()

    def __rtruediv__(self, other) -> "RatFunc":
        return as_ratfunc(other) * self.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self if n >= 0 else self.inverse()
        m = abs(n)
        num, den = base.num.terms, base.den.terms
        if len(num) == 1 == len(den):
            ((e, c),) = num.items()
            (d,) = den
            # the last product of the chain below is the largest
            if m * (max(e, d) >> _DEG) <= DEGREE_CAP:
                c = c if c == ONE else c ** m
                return _pair(_wrap({m * e: c}), _wrap({m * d: ONE}))
        result = RatFunc.const(1)
        for _ in range(m):
            result = result * base
        return result

    def partial(self, name: str) -> "RatFunc":
        """Partial derivative by the quotient rule."""
        n, d = self.num, self.den
        return RatFunc(n.partial(name) * d - n * d.partial(name), d * d)

    def substitute(self, assignment: Mapping[str, object]) -> "RatFunc":
        num = self.num.substitute(assignment)
        if self.den.terms == _ONE_TERMS:
            return num
        return num / self.den.substitute(assignment)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (Cyclo, Fraction, int, MPoly)):
            other = as_ratfunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if len(self.den.terms) == len(other.den.terms) == 1:
            # a polynomial over a monomial has one simplified form
            return self.num == other.num and self.den == other.den
        return (self.num * other.den) == (other.num * self.den)

    def __str__(self) -> str:
        if self.den == _ONE_POLY:
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        # the grammar's / is left-associative, so anything beyond a bare
        # variable power must be parenthesized to survive a reparse
        bare_power = False
        if len(self.den.terms) == 1:
            ((e, c),) = self.den.term_items()
            bare_power = c == ONE and sum(1 for k in e if k) == 1
        if not bare_power:
            ds = f"({ds})"
        return f"{ns} / {ds}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, MPoly):
        return RatFunc.from_poly(x)
    if isinstance(x, (Cyclo, Fraction, int)):
        return RatFunc.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RatFunc")


def laurent_difference(t: RatFunc, p: MPoly, q: RatFunc) -> Optional[MPoly]:
    """The numerator of t * p - q, or None where it does not apply.

    It applies when t is one term over one term, c * x^n / x^d, and q has a
    monomial denominator, Q / x^M.  Over the lane-wise maximum L of d and M,
    t * p - q is then one Laurent sum,

        (c * x^(n + L - d) * p - x^(L - M) * Q) / x^L,

    and one _lane_min cancels the content common to its numerator and x^L.
    A polynomial over a monomial has one simplified form, so the numerator
    left is that of t * RatFunc.from_poly(p) - q.  This decides from the
    keys it forms itself: it returns None only where x^L or a key of the sum
    before cancellation would pass DEGREE_CAP, so every lane stays under its
    guard bit.  It multiplies nothing, so it takes no size test.  Within the
    cap it returns the numerator even where the general arithmetic would
    pass a cap on the way.
    """
    tn, td, qd = t.num.terms, t.den.terms, q.den.terms
    if len(tn) != 1 or len(td) != 1 or len(qd) != 1:
        return None
    ((n, c),) = tn.items()
    (d,) = td
    (m,) = qd
    lcm = d + m - _with_degree(_lane_min((m,), d & _LANES))
    # over x^lcm: p's terms move up by n + lcm - d, Q's by lcm - m
    up_p, up_q = n + lcm - d, lcm - m
    pterms, qterms = p.terms, q.num.terms
    if (
        lcm >> _DEG > DEGREE_CAP
        or pterms and (max(pterms) + up_p) >> _DEG > DEGREE_CAP
        or qterms and (max(qterms) + up_q) >> _DEG > DEGREE_CAP
    ):
        return None
    if c == ONE:
        sums = {e + up_p: v for e, v in pterms.items()}
    else:
        sums = {e + up_p: v * c for e, v in pterms.items()}
    for e, v in qterms.items():
        prev = sums.get(e + up_q)
        sums[e + up_q] = -v if prev is None else prev - v
    terms = {e: v for e, v in sums.items() if not v.is_zero()}
    content = _lane_min(terms, lcm & _LANES) if terms else 0
    if content:
        return _shift_down(_wrap(terms), _with_degree(content))
    return _wrap(terms)


def jacobian_det2(fy: RatFunc, fz: RatFunc, vy: str = "y", vz: str = "z") -> RatFunc:
    """Determinant of the 2x2 Jacobian of (fy, fz) with respect to (vy, vz).

    This is the factor J with d(fy) wedge d(fz) = J * d(vy) wedge d(vz).
    """
    return fy.partial(vy) * fz.partial(vz) - fy.partial(vz) * fz.partial(vy)
