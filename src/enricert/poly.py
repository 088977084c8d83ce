"""Sparse multivariate polynomials and rational functions over Q(zeta_8).

Every polynomial lives in one ring, Q(zeta_8)[w, y, z, W, Y, Z, A..F, alpha],
and this module owns its fixed variable layout, VARIABLES.  A polynomial is
a dict from exponent vectors (slot i holds the exponent of VARIABLES[i]) to
nonzero field coefficients.  Zero coefficients are never stored, so equality
is dict equality.  Terms are ordered graded-lexicographically for display and
for the exact-division algorithm.

Rational functions are held as numerator/denominator pairs.  Simplification
is deliberately modest: common monomial content is cancelled, the denominator
is scaled to have leading coefficient 1, and full cancellation is attempted
only through exact division (which either succeeds completely or leaves the
pair untouched).  Equality is decided by cross-multiplication, so it never
depends on how much simplification happened.  A polynomial over a monomial
has one simplified form, with no common monomial content and denominator
coefficient 1, so no division is attempted for it.

Substitution has two paths that return the same pair.  When every assigned
value is c * (Laurent monomial), as for the monomial automorphisms, lifts
and covers of the Horikawa models, the substitution is a toric morphism: an
integer exponent matrix and a vector of scalars.  The monomial path maps
each term's exponent vector and sums the terms in one dict, then builds one
polynomial over one monomial.  Any other value, such as the affine
parameter substitution of a specialization or w -> y + w, takes the
term-by-term path, one RatFunc product per factor and one RatFunc sum per
term.  The monomial path first checks a degree bound that is conservative:
it assumes no cancellation and bounds the lcm of the term denominators by
per-slot maxima, so where the bound passes, the term-by-term path provably
stays under DEGREE_CAP.  Where it fails, the term-by-term path runs and
raises its own DegreeCapError if it must.

A fixed total-degree cap of DEGREE_CAP halts runaway intermediate growth
with a diagnostic error instead of letting a buggy reduction loop spin
forever.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .errors import DegreeCapError, IndivisibleError
from .field import Cyclo, ONE, ZERO

Exponents = Tuple[int, ...]
Scalar = Union[Cyclo, Fraction, int]

#: Largest total degree a polynomial product may reach.
DEGREE_CAP = 64

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


def slot(name: str) -> int:
    """The exponent-vector slot of the variable ``name``."""
    try:
        return _SLOTS[name]
    except KeyError:
        raise KeyError(f"unknown variable {name!r}") from None


def _grlex_key(e: Exponents) -> Tuple[int, Exponents]:
    return (sum(e), e)


class MPoly:
    """Immutable sparse polynomial over Q(zeta_8)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, Cyclo]):
        cleaned: Dict[Exponents, Cyclo] = {}
        for e, c in terms.items():
            if len(e) != _NVARS:
                raise ValueError(f"exponent vector {e} has wrong length")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            if not c.is_zero():
                cleaned[tuple(e)] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly instances are immutable")

    def __reduce__(self):
        return MPoly, (self.terms,)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly({})

    @staticmethod
    def const(c: Scalar) -> "MPoly":
        return MPoly({(0,) * _NVARS: Cyclo.coerce(c)})

    @staticmethod
    def var(name: str, table: Tuple[str, ...] = TABLE) -> "MPoly":
        """The variable ``name`` as a polynomial.

        The optional ``table`` is kept for ``perfbench/docgen.py``, the
        benchmark's frozen document generator, which passes TABLE; any
        other value is a ValueError.
        """
        if table is not TABLE:
            raise ValueError("the only variable layout is TABLE")
        return MPoly({_unit_exp(slot(name), 1): ONE})

    @staticmethod
    def monomial(exponents: Mapping[str, int], coeff: Scalar = 1) -> "MPoly":
        e = [0] * _NVARS
        for name, k in exponents.items():
            e[slot(name)] = k
        return MPoly({tuple(e): Cyclo.coerce(coeff)})

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
        return all(sum(e) == 0 for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = slot(name)
        if self.is_zero():
            return 0
        return max(e[i] for e in self.terms)

    def variables(self) -> Tuple[str, ...]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return tuple(VARIABLES[i] for i in sorted(used))

    def support(self) -> Tuple[Exponents, ...]:
        return tuple(sorted(self.terms, key=_grlex_key, reverse=True))

    def leading_term(self) -> Tuple[Exponents, Cyclo]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def coefficient(self, exponents: Mapping[str, int]) -> "MPoly":
        """The coefficient of the given geometric monomial, itself an MPoly.

        Only the named variables are matched; all remaining variables
        (typically the parameters) stay in the returned polynomial.
        """
        idx = {slot(n): k for n, k in exponents.items()}
        out: Dict[Exponents, Cyclo] = {}
        for e, c in self.terms.items():
            if all(e[i] == k for i, k in idx.items()):
                reduced = tuple(0 if i in idx else v for i, v in enumerate(e))
                out[reduced] = out.get(reduced, ZERO) + c
        return MPoly(out)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        out: Dict[Exponents, Cyclo] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) > DEGREE_CAP:
                    raise DegreeCapError(
                        f"product term of total degree {sum(e)} exceeds cap {DEGREE_CAP}"
                    )
                out[e] = out.get(e, ZERO) + c1 * c2
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("MPoly exponent must be a nonnegative integer")
        base, result = self, MPoly.const(1)
        # Square-and-multiply; the base is squared only while bits remain, so
        # no intermediate product has a higher degree than the result.
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: Scalar) -> "MPoly":
        cc = Cyclo.coerce(c)
        return MPoly({e: cc * v for e, v in self.terms.items()})

    def partial(self, name: str) -> "MPoly":
        i = slot(name)
        out: Dict[Exponents, Cyclo] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            key = tuple(de)
            out[key] = out.get(key, ZERO) + c * e[i]
        return MPoly(out)

    # -- substitution --------------------------------------------------------

    def substitute(self, assignment: Mapping[str, object]) -> "RatFunc":
        """Evaluate with variables replaced by rational functions.

        Unassigned variables map to themselves, making this the identity on
        untouched slots.  The substitution is a ring homomorphism; the result
        is a RatFunc because assigned values may have denominators.

        Two paths compute it.  When every assigned value is a nonzero
        c * (Laurent monomial), a RatFunc whose numerator and denominator are
        single terms, the monomial path maps each term's exponent vector
        linearly, multiplies its coefficient by cached powers of the c's and
        sums the terms into one polynomial over one monomial.  Every other
        assignment takes the term-by-term path, which multiplies and adds one
        RatFunc per term.  The monomial path also hands over to the
        term-by-term path when a conservative degree bound cannot show that
        the term-by-term path stays under DEGREE_CAP, so an input over the
        cap raises the same DegreeCapError whichever path it would suit.
        Both paths return the same num/den pair: see _substitute_monomials.
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

        A value c * x^a / x^b moves the exponent of its slot i onto a - b.
        So a term c0 * x^e maps to c0 * prod(c_i^e_i) * x^E, where E is e
        with each assigned slot's exponent moved along its value's a - b.  E
        may have negative entries; the sum of all terms is P / x^M with M the
        most negative entry per slot (or 0), and P without common monomial
        content in any slot of M.  _simplify keeps such a pair as it is (a
        polynomial over a monomial has one simplified form), so it equals
        the pair the term-by-term path returns.
        """
        # (slot, scalar or None for 1, nonzero entries of a - b, |a|, |b|);
        # _simplify leaves a monic denominator, so b carries coefficient 1
        monomials = []
        for i, v in values.items():
            if len(v.num.terms) != 1 or len(v.den.terms) != 1:
                return None
            ((a, c),) = v.num.terms.items()
            (b,) = v.den.terms
            moves = tuple(
                (j, aj - bj) for j, (aj, bj) in enumerate(zip(a, b)) if aj != bj
            )
            monomials.append((i, None if c == ONE else c, moves, sum(a), sum(b)))
        sums: Dict[Exponents, Cyclo] = {}
        powers: Dict[Tuple[int, int], Cyclo] = {}
        top = dict.fromkeys(values, 0)
        num_top = den_top = 0
        for e, c in self.terms.items():
            out = list(e)
            num_deg, den_deg = sum(e), 0
            for i, ci, moves, na, nb in monomials:
                k = e[i]
                if not k:
                    continue
                out[i] -= k
                for j, d in moves:
                    out[j] += k * d
                num_deg += k * (na - 1)
                den_deg += k * nb
                if k > top[i]:
                    top[i] = k
                if ci is not None:
                    p = powers.get((i, k))
                    if p is None:
                        p = powers[(i, k)] = ci ** k
                    c = c * p
            if num_deg > num_top:
                num_top = num_deg
            if den_deg > den_top:
                den_top = den_deg
            key = tuple(out)
            prev = sums.get(key)
            sums[key] = c if prev is None else prev + c
        # The term-by-term path raises DegreeCapError when one of its products
        # exceeds the cap.  There a term c0 * x^e becomes c * x^U / x^V with
        # |U| = num_deg and |V| = den_deg before cancellation, so its own
        # products stay within max(|U|, |V|).  The running sum is P / x^M
        # with M at most L, the slotwise maximum of the V's, and every term
        # of P of degree at most max|U| + |L|; so the products of adding a
        # term stay within max|U| + |L| + max|V|, and simplifying a
        # polynomial over a monomial divides nothing.  |L| is at most the
        # sum over assigned slots of the largest exponent there times |b|.
        # Cancellation only lowers degrees, so the bound is conservative:
        # over the cap, the term-by-term path decides and raises its own
        # error if it must.
        lcm_top = sum(top[i] * nb for i, _, _, _, nb in monomials)
        if num_top + lcm_top + den_top > DEGREE_CAP:
            return None
        terms = {e: c for e, c in sums.items() if not c.is_zero()}
        if not terms:
            return RatFunc.zero()
        den_exp = tuple(-m if m < 0 else 0 for m in map(min, zip(*terms)))
        if any(den_exp):
            terms = {
                tuple(x + m for x, m in zip(e, den_exp)): c for e, c in terms.items()
            }
        return RatFunc(MPoly(terms), MPoly({den_exp: ONE}))

    def _substitute_terms(self, values: Mapping[int, "RatFunc"]) -> "RatFunc":
        """The term-by-term path of substitute: one RatFunc product per factor."""
        total = RatFunc.zero()
        cache: Dict[Tuple[int, int], RatFunc] = {}
        for e, c in self.terms.items():
            term = RatFunc.from_poly(MPoly.const(c))
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if i in values:
                    key = (i, k)
                    if key not in cache:
                        cache[key] = values[i] ** k
                    factor = cache[key]
                else:
                    factor = RatFunc.from_poly(MPoly({_unit_exp(i, k): ONE}))
                term = term * factor
            total = total + term
        return total

    def substitute_poly(self, assignment: Mapping[str, object]) -> "MPoly":
        """Substitution that must produce a polynomial (denominator 1)."""
        r = self.substitute(assignment)
        if not r.is_polynomial():
            raise ValueError("substitution produced a genuine denominator")
        return r.num

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
        for e in self.support():
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = VARIABLES[i]
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


def _unit_exp(i: int, k: int) -> Exponents:
    e = [0] * _NVARS
    e[i] = k
    return tuple(e)


def exact_divide(p: MPoly, q: MPoly) -> MPoly:
    """Exact quotient p / q, or IndivisibleError carrying the remainder.

    Single-divisor division along graded-lex leading terms.  If p = q * r
    exactly the loop reconstructs r; the first leading term that q's leading
    term fails to divide proves indivisibility, and the current remainder is
    attached to the error as a witness.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    qe, qc = q.leading_term()
    # RatFunc._simplify hands over monic divisors; skip inverting 1.
    monic = qc == ONE
    qc_inv = ONE if monic else qc.inverse()
    quot: Dict[Exponents, Cyclo] = {}
    rem = p
    while not rem.is_zero():
        e, c = rem.leading_term()
        diff = tuple(a - b for a, b in zip(e, qe))
        if any(d < 0 for d in diff):
            raise IndivisibleError(q, rem)
        coeff = c if monic else c * qc_inv
        quot[diff] = quot.get(diff, ZERO) + coeff
        rem = rem - MPoly({diff: coeff}) * q
    return MPoly(quot)


def monomial_content(p: MPoly) -> Exponents:
    """Componentwise minimum exponent vector over all terms."""
    if p.is_zero():
        return (0,) * _NVARS
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
    return mins


def _shift_down(p: MPoly, shift: Exponents) -> MPoly:
    if all(s == 0 for s in shift):
        return p
    return MPoly({tuple(a - b for a, b in zip(e, shift)): c for e, c in p.terms.items()})


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
        if num.is_zero():
            return num, MPoly.const(1)
        shift = tuple(
            min(a, b) for a, b in zip(monomial_content(num), monomial_content(den))
        )
        num, den = _shift_down(num, shift), _shift_down(den, shift)
        lead = den.leading_term()[1]
        if lead != ONE:
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
        # A monomial x^M (a constant included) is final here.  Once the
        # shift leaves num a term free of x_j for each x_j in x^M, num is
        # not divisible by x^M, and num divides x^M only as a constant c,
        # where the branch below would return (c, x^M) again.
        if len(den.terms) == 1:
            return num, den
        try:
            return exact_divide(num, den), MPoly.const(1)
        except IndivisibleError:
            pass
        try:
            cofactor = exact_divide(den, num)
            # den = num * cofactor, so num/den = 1/cofactor; renormalize.
            one = MPoly.const(1)
            lead = cofactor.leading_term()[1]
            if lead != ONE:
                inv = lead.inverse()
                return one.scale(inv), cofactor.scale(inv)
            return one, cofactor
        except IndivisibleError:
            return num, den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(MPoly.zero(), MPoly.const(1))

    @staticmethod
    def const(c: Scalar) -> "RatFunc":
        return RatFunc(MPoly.const(c), MPoly.const(1))

    @staticmethod
    def from_poly(p: MPoly) -> "RatFunc":
        return RatFunc(p, MPoly.const(1))

    @staticmethod
    def var(name: str) -> "RatFunc":
        return RatFunc.from_poly(MPoly.var(name))

    def _coerce(self, x) -> "RatFunc":
        return as_ratfunc(x)

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MPoly:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a polynomial")
        # _simplify makes the denominator monic, so a constant one is 1
        return self.num

    def as_constant(self) -> Optional[Cyclo]:
        """The constant value if num = c * den identically, else None."""
        if self.num.is_zero():
            return ZERO
        e, dc = self.den.leading_term()
        nc = self.num.terms.get(e)
        if nc is None:
            return None
        c = nc / dc
        return c if self.num == self.den.scale(c) else None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other) -> "RatFunc":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "RatFunc":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self if n >= 0 else self.inverse()
        result = RatFunc.const(1)
        for _ in range(abs(n)):
            result = result * base
        return result

    def partial(self, name: str) -> "RatFunc":
        """Partial derivative by the quotient rule."""
        n, d = self.num, self.den
        return RatFunc(n.partial(name) * d - n * d.partial(name), d * d)

    def substitute(self, assignment: Mapping[str, object]) -> "RatFunc":
        return self.num.substitute(assignment) / self.den.substitute(assignment)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (Cyclo, Fraction, int, MPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __str__(self) -> str:
        if self.den == MPoly.const(1):
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        # the grammar's / is left-associative, so anything beyond a bare
        # variable power must be parenthesized to survive a reparse
        bare_power = False
        if len(self.den.terms) == 1:
            (e, c), = self.den.terms.items()
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


def jacobian_det2(fy: RatFunc, fz: RatFunc, vy: str = "y", vz: str = "z") -> RatFunc:
    """Determinant of the 2x2 Jacobian of (fy, fz) with respect to (vy, vz).

    This is the factor J with d(fy) wedge d(fz) = J * d(vy) wedge d(vz).
    """
    return fy.partial(vy) * fz.partial(vz) - fy.partial(vz) * fz.partial(vy)
