"""Exact invariants of finitely presented groups and braid mapping tori.

The package computes, with exact integer and rational arithmetic:

- Alexander matrices, elementary ideals and Alexander polynomials via
  Fox calculus (:mod:`.alexander`), over the exact multivariate Laurent
  ring (:mod:`.laurent`);
- Alexander norms, Newton polytopes, balance centers and dual norm
  balls (:mod:`.polytope`);
- BNS invariants of cyclic modules by the Newton-polytope vertex
  criterion, with exact rank-2 arc geometry and containment
  certificates (:mod:`.bns`);
- the invariant of a 2-generator 1-relator group by Brown's
  simple-vertex procedure on the relator's lattice path (:mod:`.brown`);
- reduced Burau matrices of braid words and the mapping-torus
  polynomial det(wI - Burau(beta)), cross-checked against Fox calculus
  on an explicit mapping-torus presentation (:mod:`.braid`).

The command-line front end lives in :mod:`.cli`; run ``normforge
examples`` for bundled inputs.
"""

from .words import (
    AbelianizationMap,
    Generator,
    ParseError,
    Presentation,
    PresentationFile,
    Word,
    free_abelianization,
    load_presentation,
    make_alphabet,
    parse_presentation_text,
    parse_word,
    presentation,
    smith_normal_form,
)
from .laurent import (
    LaurentPoly,
    divide_exact,
    equal_up_to_unit,
    gcd,
    gcd_many,
    invert_variables,
    normalize_unit,
    parse_poly,
    poly_matrix_det,
    poly_to_text,
    substitute,
    unit_inverse,
    unit_quotient,
)
from .alexander import (
    AlexanderData,
    AlexanderMatrix,
    CheckReport,
    ElementaryIdealGens,
    alexander_data,
    alexander_matrix,
    alexander_polynomial,
    check_e1_structure,
    check_fundamental_identity,
    check_symmetry,
    elementary_ideal,
    fox_derivative,
)
from .polytope import (
    Face,
    LatticePolytope,
    NormBall,
    alexander_norm,
    balance_center,
    dual_ball,
    hull_vertices,
    lattice_polytope,
    newton_polytope,
    point_in_hull,
)
from .bns import (
    Arc,
    ComponentComparison,
    OpenCone,
    SigmaDescription,
    SphereArcs,
    compare_sigma,
    cone_arc,
    cone_contains,
    interior_direction,
    primitive,
    rank2_arcs,
    sigma_alexander,
    sigma_principal,
)
from .brown import (
    LatticePath,
    UnsupportedPresentation,
    brown_sigma,
    simple_vertices,
    trace_relator,
)
from .braid import (
    BraidWord,
    BurauMatrix,
    MappingTorusDelta,
    braid_action,
    burau,
    gamma,
    is_n_cycle,
    mapping_torus_delta,
    mapping_torus_delta_fox,
    mapping_torus_presentation,
    parse_braid,
    permutation,
)

__version__ = "0.1.0"
