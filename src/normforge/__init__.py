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

Importing the package runs none of the library modules.  Each one is
registered in ``sys.modules`` through :class:`importlib.util.LazyLoader`
and bound as a package attribute, so ``normforge.laurent`` and
``sys.modules["normforge.laurent"]`` are the same object; its code runs
on the first attribute access.  The public names below resolve through
a module ``__getattr__`` (PEP 562), so ``from normforge import
LaurentPoly`` runs ``laurent`` only.  Before Python 3.12
a lazy module's first access is not thread-safe; the package starts no
threads.

:class:`InvariantError` (from :mod:`.errors`, the one module the package
runs on import) is what every library module raises when one of its own
checks fails.
"""

import importlib.util
import sys

from .errors import InvariantError

__version__ = "0.1.0"

# Public names, by the module that defines them.
_EXPORTS = {
    "words": (
        "AbelianizationMap", "Generator", "ParseError", "Presentation", "PresentationFile",
        "Word", "free_abelianization", "make_alphabet", "parse_presentation_text",
        "parse_word", "presentation", "smith_normal_form",
    ),
    "laurent": (
        "LaurentPoly", "divide_exact", "equal_up_to_unit", "gcd", "gcd_many",
        "invert_variables", "normalize_unit", "parse_poly", "poly_matrix_det", "poly_to_text",
        "split_unit", "substitute", "unit_inverse", "unit_quotient",
    ),
    "alexander": (
        "AlexanderData", "AlexanderMatrix", "CheckReport", "ElementaryIdealGens",
        "alexander_data", "alexander_matrix", "alexander_polynomial", "check_e1_structure",
        "check_fundamental_identity", "check_symmetry", "elementary_ideal", "fox_derivative",
    ),
    "polytope": (
        "Face", "LatticePolytope", "NormBall", "alexander_norm", "balance_center", "dual_ball",
        "hull_vertices", "lattice_polytope", "newton_polytope", "point_in_hull",
    ),
    "bns": (
        "Arc", "ComponentComparison", "OpenCone", "SigmaDescription", "SphereArcs",
        "compare_sigma", "cone_arc", "cone_contains", "primitive", "rank2_arcs",
        "sigma_alexander", "sigma_principal", "vertex_cones",
    ),
    "brown": (
        "LatticePath", "UnsupportedPresentation", "brown_sigma", "simple_vertices",
        "trace_relator",
    ),
    "braid": (
        "BraidWord", "BurauMatrix", "MappingTorusDelta", "braid_action", "burau", "gamma",
        "is_n_cycle", "mapping_torus_delta", "mapping_torus_delta_fox",
        "mapping_torus_presentation", "parse_braid", "permutation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["InvariantError", *_HOME]


def _lazy_module(name: str):
    """``normforge.<name>``, registered so that its code runs on first attribute access.

    A module already in ``sys.modules`` is returned as it is, so there is
    only ever one module object (and one ``ParseError`` class) per name.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy_module(_name)
del _name


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
