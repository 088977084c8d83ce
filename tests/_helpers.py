"""Shared random-instance generators and reference bodies for the property
suites.

Everything takes an explicit random.Random so failures reproduce from the
seed printed by the test that caught them.
"""

import contextlib
import functools
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import enricert
from enricert import ONE, SQRT_M1, ZETA8, BirMap, Cyclo, MPoly, RatFunc, poly
from enricert.cover import ENRIQUES_VARS, family, k3_cover
from enricert.ingest import load_document, serialize_family
from enricert.poly import as_ratfunc, slot

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = Path(__file__).resolve().parent / "data"
FIXTURES = Path(enricert.__file__).parent / "fixtures"


def rand_fraction(rng, span=4):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def rand_cyclo(rng, span=3, density=0.6):
    coords = [
        rand_fraction(rng, span) if rng.random() < density else Fraction(0)
        for _ in range(4)
    ]
    return Cyclo(*coords)


def nonzero_cyclo(rng, span=3):
    while True:
        c = rand_cyclo(rng, span)
        if not c.is_zero():
            return c


#: Expressions of the coordinate grammar: atoms, parenthesized sums,
#: differences, products and quotients of two expressions, and powers with
#: exponents from -3 to 70 (those over the degree cap are parse errors).
WELL_FORMED_EXPRESSIONS = st.recursive(
    st.sampled_from(["w", "y", "z", "A", "i", "zeta8", "0", "1", "3/2"]),
    lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    )
    | st.tuples(inner, st.integers(min_value=-3, max_value=70)).map(
        lambda t: f"{t[0]}^{t[1]}"
    ),
    max_leaves=6,
)


# -- the general arithmetic that the single-term paths stand in for ---------
#
# RatFunc builds a product, inverse or power of single terms from the
# exponent keys, and MPoly powers a polynomial as the chain P^k = P^(k-1)*P.
# These are the bodies they replaced: the general product of pairs, which
# _simplify reduces, and square-and-multiply.


def general_ratfunc_mul(r, s):
    s = as_ratfunc(s)
    return RatFunc(r.num * s.num, r.den * s.den)


def general_ratfunc_inverse(r):
    if r.is_zero():
        raise ZeroDivisionError("inverse of the zero rational function")
    return RatFunc(r.den, r.num)


def general_ratfunc_pow(r, n):
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    base = r if n >= 0 else general_ratfunc_inverse(r)
    result = RatFunc.const(1)
    for _ in range(abs(n)):
        result = general_ratfunc_mul(result, base)
    return result


@contextlib.contextmanager
def general_ratfunc_arithmetic():
    """RatFunc's product, inverse and power as the general bodies above,
    while the block runs."""
    names = ("__mul__", "inverse", "__pow__")
    saved = {name: RatFunc.__dict__[name] for name in names}
    RatFunc.__mul__ = general_ratfunc_mul
    RatFunc.inverse = general_ratfunc_inverse
    RatFunc.__pow__ = general_ratfunc_pow
    try:
        yield
    finally:
        for name, method in saved.items():
            setattr(RatFunc, name, method)


@contextlib.contextmanager
def raised_degree_cap():
    """poly.DEGREE_CAP at 96 while the block runs.  Every lane stays under
    its guard bit, so RatFunc arithmetic that passes the default cap on
    the way to a result under it returns that result here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "DEGREE_CAP", 96)
        yield


def outcome(compute, *args):
    """The num/den pair or polynomial terms ``compute(*args)`` returns, or
    the type and text of the exception it raises."""
    try:
        value = compute(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, MPoly):
        return list(value.terms.items())
    return list(value.num.terms.items()), list(value.den.terms.items())


def rand_mpoly(rng, names=("y", "z"), max_terms=3, max_exp=3, span=3):
    p = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = rand_cyclo(rng, span, density=1.0)
        p = p + MPoly.sum_monomials([({name: rng.randint(0, max_exp) for name in names}, c)])
    return p


def nonzero_mpoly(rng, **kw):
    while True:
        p = rand_mpoly(rng, **kw)
        if not p.is_zero():
            return p


def quadric_forms():
    """The exponent form (M, k) of each of the 512 monomial automorphisms
    (Y, Z) -> (zeta8^k1 * V1^e1, zeta8^k2 * V2^e2) of P1 x P1, with
    (V1, V2) = (Y, Z) for the direct shape and (Z, Y) for the swap shape, in
    the order the square-root search reports roots: direct before swap, then
    the signs (e1, e2) from (1, 1) to (-1, -1), then k."""
    for swap in (False, True):
        for e1, e2 in itertools.product((1, -1), repeat=2):
            matrix = (0, e1, e2, 0) if swap else (e1, 0, 0, e2)
            for k in itertools.product(range(8), repeat=2):
                yield matrix, k


@functools.lru_cache(maxsize=None)
def quadric_coords(form):
    """The (Y, Z) coordinate functions of the quadric form (M, k), as the
    RatFuncs zeta8^k1 * V1^e1 and zeta8^k2 * V2^e2: the reference for the
    engine's form arithmetic, read off the definition with none of it."""
    (m11, m12, m21, m22), (k1, k2) = form
    y, z = RatFunc.var("Y"), RatFunc.var("Z")
    factors = ((k1, y, m11), (k2, z, m22)) if m12 == 0 else ((k1, z, m12), (k2, y, m21))
    return tuple(
        RatFunc.const(ZETA8 ** k) * (v if e == 1 else v.inverse()) for k, v, e in factors
    )


def compose_coords(outer, inner):
    """outer after inner, each a pair of (Y, Z) coordinate functions, by
    substitution."""
    at = {"Y": inner[0], "Z": inner[1]}
    return tuple(f.substitute(at) for f in outer)


def rand_monomial_plane_map(rng, span=2):
    """(y, z) -> (c1 y^a z^b, c2 y^c z^d) with ad - bc != 0, as RatFuncs."""
    while True:
        a, b, c, d = (rng.randint(-span, span) for _ in range(4))
        if a * d - b * c != 0:
            break
    y = RatFunc.var("y")
    z = RatFunc.var("z")
    c1 = RatFunc.const(nonzero_cyclo(rng, span=2))
    c2 = RatFunc.const(nonzero_cyclo(rng, span=2))
    return c1 * y ** a * z ** b, c2 * y ** c * z ** d


def identity_map(variables=ENRIQUES_VARS):
    """The identity map over its own three variables, from its exponent
    form."""
    form = tuple((ONE, row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return BirMap.from_form(variables, form, "id")


def monomial_map(variables, scalars, rows):
    """The map x_v -> scalars[v] * x^rows[v] over its own three variables."""
    coords = {}
    for v, c, row in zip(variables, scalars, rows):
        num = MPoly.sum_monomials([({x: k for x, k in zip(variables, row) if k > 0}, c)])
        den = MPoly.monomial({x: -k for x, k in zip(variables, row) if k < 0})
        coords[v] = RatFunc(num, den)
    return BirMap(variables, coords, label="m")


_SIGNED_PERMUTATIONS = [
    tuple(tuple(s * (j == p) for j in range(2)) for p, s in zip(perm, signs))
    for perm in itertools.permutations(range(2))
    for signs in itertools.product((1, -1), repeat=2)
]
_EXPONENT = st.integers(-3, 3)
ROOT_OF_UNITY = st.integers(0, 7).map(lambda k: ZETA8 ** k)
_SCALAR = st.one_of(
    ROOT_OF_UNITY,
    st.fractions(min_value=-9, max_value=9, max_denominator=9)
    .filter(lambda q: q != 0).map(Cyclo.from_rational),
)
#: Base blocks of exponent matrices: signed permutations and any entries in
#: -3..3.
BASE_BLOCKS = st.one_of(
    st.sampled_from(_SIGNED_PERMUTATIONS),
    st.tuples(st.tuples(_EXPONENT, _EXPONENT), st.tuples(_EXPONENT, _EXPONENT)),
)
#: Base blocks of determinant 0: the second row a multiple of the first.
SINGULAR_BLOCKS = st.tuples(_EXPONENT, _EXPONENT).flatmap(
    lambda row: st.integers(-2, 2).map(lambda k: (row, (k * row[0], k * row[1])))
)


@st.composite
def monomial_maps(draw, variables, blocks=BASE_BLOCKS):
    """Monomial maps whose exponent rows have entries in -3..3, with the
    cover coordinate c * x^m * w or c * x^m and the base block drawn from
    ``blocks``."""
    base = draw(blocks)
    cover_row = draw(st.one_of(
        st.just((1, 0, 0)), st.tuples(st.integers(0, 1), _EXPONENT, _EXPONENT)
    ))
    rows = (cover_row,) + tuple((0,) + row for row in base)
    # maps of finite order need roots of unity in every coordinate
    scalar = ROOT_OF_UNITY if draw(st.booleans()) else _SCALAR
    return monomial_map(variables, draw(st.tuples(scalar, scalar, scalar)), rows)


def run_python(*args, env=(), **kwargs):
    """Run ``python *args`` in a child process, with the variables ``env``
    added to this process's environment; ``kwargs`` go to subprocess.run,
    and may replace its captured text output.

    The child imports the same package as this process, also when pytest
    put it on sys.path through its pythonpath setting rather than the
    environment.
    """
    root = str(Path(enricert.__file__).parents[1])
    env = {**os.environ, **dict(env)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    options = {"capture_output": True, "text": True, **kwargs}
    return subprocess.run([sys.executable, *args], env=env, **options)


def load_docgen():
    """``perfbench/docgen.py``, the benchmark's document generator, imported
    from its directory and only read."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import docgen
    finally:
        sys.path.remove(str(PERFBENCH))
    return docgen


def _documents(seeds, indices):
    docgen = load_docgen()
    return [
        load_document(json.loads(docgen.generate(seed, index)[0]))
        for seed in seeds
        for index in indices
    ]


def document_pairs(seeds=(1, 2, 3), indices=(0, 1, 2)):
    """Every (family, map) pair of the generated documents of the given
    seeds and indices, the failing decoy map included."""
    return [
        (fam, phi)
        for doc in _documents(seeds, indices)
        for fam in doc.families
        for phi in doc.maps
    ]


def document_maps(seeds=(1, 2, 3), indices=(0, 1, 2)):
    """Every map of the generated documents of the given seeds and indices,
    the failing decoy map included."""
    return [phi for doc in _documents(seeds, indices) for phi in doc.maps]


def document_families(seeds=(1, 2, 3), indices=(0, 1, 2)):
    """Every family of the generated documents of the given seeds and
    indices."""
    return [fam for doc in _documents(seeds, indices) for fam in doc.families]


@functools.lru_cache(maxsize=1)
def builtin_and_document_families():
    """The built-in families, their K3 covers and the families of the
    generated documents of seed 1."""
    families = [family(k) for k in (1, 2, 3)]
    return tuple(families + [k3_cover(f) for f in families] + document_families(seeds=(1,)))


def bis_condition(cover, which):
    """Whether the branch g of a K3 cover satisfies condition 1,
    Y^4 Z^4 g(1/Y, 1/Z) = -g, or condition 2, Z^4 g(1/Z, Y) = i*g.

    Read term by term, with no substitution: the left side sends
    c * Y^i Z^j to c * Y^(4-i) Z^(4-j), or to c * Y^j Z^(4-i).
    """
    iy, iz = slot("Y"), slot("Z")
    lhs, rhs = {}, {}
    for e, c in cover.branch.term_items():
        i, j = e[iy], e[iz]
        moved = list(e)
        moved[iy], moved[iz] = (4 - i, 4 - j) if which == 1 else (j, 4 - i)
        lhs[tuple(moved)] = c
        rhs[e] = -c if which == 1 else SQRT_M1 * c
    return lhs == rhs


# -- documents with pinned runs --------------------------------------------


def fixture_doc_dict():
    """The fixture document families.json as parsed JSON."""
    return json.loads((FIXTURES / "families.json").read_text(encoding="utf-8"))


def _two_broken_maps_doc():
    corrupted = fixture_doc_dict()
    # break two maps independently: both drop their unit factor
    corrupted["maps"][0]["coords"]["w"] = "w/(y^2*z^3)"
    corrupted["maps"][1]["coords"]["w"] = "y^3*w/z^4"
    return corrupted


def _one_broken_map_doc():
    corrupted = fixture_doc_dict()
    corrupted["maps"][2]["coords"]["w"] = "w*y^3/z^2"
    return corrupted


def _shift_map_doc():
    # w -> y + w has both an even and an odd part, so its invariance
    # witness carries the cross term 2ab of (a + b*w)^2
    doc = fixture_doc_dict()
    doc["maps"].append({"name": "shift", "coords": {"w": "y + w", "y": "y", "z": "z"}})
    return doc


def _big_power_map_doc():
    # y -> y^40 pushes the pulled-back branch curve past poly.DEGREE_CAP, so
    # custom-invariance-big fails on a DegreeCapError witness
    doc = fixture_doc_dict()
    doc["maps"].append({"name": "big", "coords": {"w": "w", "y": "y^40", "z": "z"}})
    return doc


def _monomial_denominator_map_doc():
    # y -> 1 / y^20 substitutes a value with a monomial denominator
    doc = fixture_doc_dict()
    doc["maps"].append(
        {"name": "inverse_power", "coords": {"w": "w", "y": "1 / y^20", "z": "z^3"}}
    )
    return doc


def _polynomial_value_map_doc():
    # y -> y + z substitutes a polynomial value at powers up to 4
    doc = fixture_doc_dict()
    doc["maps"].append({"name": "sum", "coords": {"w": "w", "y": "y + z", "z": "z"}})
    return doc


def _rational_value_map_doc():
    # y -> (y+1)/(y-1) has a non-monomial denominator, so it substitutes
    # term by term
    doc = fixture_doc_dict()
    doc["maps"].append(
        {"name": "cayley", "coords": {"w": "w", "y": "(y+1)/(y-1)", "z": "z"}}
    )
    return doc


def _k3_cover_families_doc():
    # with the K3 covers of families 1 and 2 in the document, the fixture's
    # lifts and deck_flip get invariance, order and 2-form ratio records
    doc = fixture_doc_dict()
    doc["families"] += [serialize_family(k3_cover(family(k)), ()) for k in (1, 2)]
    return doc


def _nonconstant_ratio_map_doc():
    # y -> z/y preserves A*z^2 + B*z^3 but its bi-2-form ratio is not
    # constant; y -> y*z, z -> y*z does not preserve it
    return {
        "schema": "enricert-input/1",
        "families": [{
            "name": "zonly", "kind": "enriques_horikawa", "parameters": ["A", "B"],
            "monomials": [
                {"i": 0, "j": 2, "coeff": {"param": "A", "scalar": "1,0,0,0"}},
                {"i": 0, "j": 3, "coeff": {"param": "B", "scalar": "1,0,0,0"}},
            ],
        }],
        "maps": [
            {"name": "flip", "coords": {"w": "w", "y": "z/y", "z": "z"}},
            {"name": "singular", "coords": {"w": "w", "y": "y*z", "z": "y*z"}},
        ],
    }


def _square_sum_map_doc():
    # y -> (y + z + A + ... + F + 1)^2 is a 45-term value; the pulled-back
    # relation passes the product size cap, so its invariance record is a
    # SizeCapError
    doc = fixture_doc_dict()
    doc["maps"].append({
        "name": "square_sum",
        "coords": {"w": "w", "y": "(y + z + A + B + C + D + E + F + 1)^2", "z": "z"},
    })
    return doc


def _k3_cayley_doc():
    # W -> 2i*W/(Y-1)^2, Y -> (Y+1)/(Y-1) preserves W^2 = (Y^4 - 6Y^2 + 1) *
    # (Z^4 + A*Z^2 + B) and is not monomial, so its invariance, order and
    # 2-form ratio take the general rational paths; its square is W -> -W
    return json.loads((DATA / "k3_cayley_document.json").read_text(encoding="utf-8"))


#: The builders of the documents whose `enricert verify --input` output
#: tests/data/pinned_document_runs.json pins, by name.
PINNED_DOCUMENTS = {
    "two-broken-maps": _two_broken_maps_doc,
    "one-broken-map": _one_broken_map_doc,
    "shift-map": _shift_map_doc,
    "big-power-map": _big_power_map_doc,
    "monomial-denominator-map": _monomial_denominator_map_doc,
    "polynomial-value-map": _polynomial_value_map_doc,
    "rational-value-map": _rational_value_map_doc,
    "k3-cover-families": _k3_cover_families_doc,
    "nonconstant-ratio-map": _nonconstant_ratio_map_doc,
    "square-sum-map": _square_sum_map_doc,
    "k3-cayley-automorphism": _k3_cayley_doc,
}
