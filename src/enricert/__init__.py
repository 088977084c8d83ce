"""enricert: exact certification of automorphism families on nodal Enriques
surfaces in their double-plane models.

The package verifies, in exact arithmetic over Q(zeta_8), that three explicit
branch-polynomial families admit the automorphisms claimed for them (orders
4, 8, 8 acting on the bi-2-form with indices 2, 4, 2), constructs their K3
covers and lifted actions, checks the lattice and fixed-point arithmetic the
classification rests on, and derives the finite list of admissible
(order, index) pairs.  Results are emitted as deterministic JSON
certificates; see the command line tool ``enricert``.
"""

__version__ = "0.1.0"

from .field import (
    Cyclo,
    ONE,
    SQRT_M1,
    ZERO,
    ZETA8,
    parse_cyclo,
    root_of_unity_order,
)
from .poly import MPoly, RatFunc, TABLE, exact_divide, jacobian_det2
from .parsing import parse_expression
from .cover import (
    SurfaceFamily,
    epsilon_fixed_point_free,
    family,
    horikawa_support,
    k3_cover,
    specialization_one_param,
    specialization_to_family2,
    specialize,
)
from .maps import (
    BirMap,
    QAut,
    check_equation_invariance,
    compose,
    deck_flip,
    family_automorphism,
    inv_both,
    is_identity,
    k3_lift,
    k4_normal_form_check,
    map_order,
    maps_equal,
    neg_both,
    qaut_fixed_points,
    swap_root,
)
from .forms import bitwoform_pullback_ratio, index_of, k3_twoform_ratio
from .lattices import (
    ADE_RANK,
    FixedCurveData,
    GramLattice,
    K3_B2,
    euler_phi,
    holomorphic_lefschetz_case_a,
    holomorphic_lefschetz_case_b,
    hyperbolic_plane,
    isometries_with_trace,
    moduli_dimension,
    picard_bound_for_82,
    topological_lefschetz_count,
)
from .classify import (
    ClassificationOutcome,
    PruneRecord,
    RULE_STATEMENTS,
    admissible_pairs,
    allowed_orders,
)
from .moduli import (
    ParameterAction,
    check_parameter_action,
    diagonal_base_scaling,
    homothety,
    moduli_number,
)
from .certificate import Certificate, CheckRecord, run_checks, verify_all
from .ingest import load_document, serialize_document
