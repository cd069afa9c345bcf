"""Brown's procedure for the BNS invariant of a 2-generator 1-relator group.

The relator is traced as a lattice path in Z^2: point i is the
abelianized image of the length-i prefix, so each step moves by a unit
vector.  When the relator lies in the commutator subgroup (zero
exponent sums) the path is closed.  Let C be the convex hull of the
path's points; a hull vertex is *simple* if the closed path passes
through it exactly once.  Each simple vertex v contributes a component

    C_v = { [chi] : chi(v - w) > 0 for every hull vertex w != v }

of the invariant, built by :func:`.bns.vertex_cones`, the one cone
builder, which :func:`.bns.sigma_principal` uses for the ±1 vertices.

Only the commutator-subgroup case (closed path) is implemented; that is
the shape the bundled example exercises.  Cones are emitted exactly as
this simple-vertex criterion dictates; for presentations outside that
family the caller should treat the output as "per the stated criterion"
rather than a computation of the full invariant (the commutator relator
of Z^2, say, yields the four open quadrants).
"""

from __future__ import annotations

from ._record import record
from .bns import SigmaDescription, vertex_cones
from .polytope import hull_vertices
from .words import Presentation, Word


class UnsupportedPresentation(ValueError):
    """The presentation is outside the shape this procedure handles."""


@record
class LatticePath:
    """Lattice path p_0, ..., p_L with p_0 = (0, 0) and unit-vector steps."""

    points: tuple[tuple[int, int], ...]

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    def is_closed(self) -> bool:
        return self.points[0] == self.points[-1]


def trace_relator(r: Word) -> LatticePath:
    """Prefix-abelianization path of a word over a 2-generator alphabet.

    >>> from .words import make_alphabet, parse_word
    >>> ab = make_alphabet("a b")
    >>> trace_relator(parse_word("a b a^-1 b^-1", ab)).points
    ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    """
    if len(r.alphabet) != 2:
        raise UnsupportedPresentation(
            f"path tracing needs exactly 2 generators, got {len(r.alphabet)}"
        )
    x = y = 0
    points = [(0, 0)]
    for idx, sign in r.letters:
        if idx == 0:
            x += sign
        else:
            y += sign
        points.append((x, y))
    return LatticePath(tuple(points))


def simple_vertices(path: LatticePath) -> list[tuple[tuple[int, int], int]]:
    """Hull vertices of a closed path with their visit multiplicities.

    Multiplicity counts path points p_0, ..., p_{L-1} cyclically (p_L is
    identified with p_0, so the basepoint is counted once); a vertex is
    simple iff its multiplicity is 1.  Returned in the hull's canonical
    counterclockwise order.
    """
    if not path.is_closed():
        raise ValueError("multiplicities are defined for closed paths only")
    cyclic = path.points[:-1] if path.steps > 0 else path.points
    hull = hull_vertices(list(path.points))
    counts = {v: 0 for v in hull}
    for p in cyclic:
        if p in counts:
            counts[p] += 1
    return [(v, counts[v]) for v in hull]


def brown_sigma(p: Presentation) -> SigmaDescription:
    """Invariant of a 2-generator 1-relator group by the simple-vertex criterion.

    Requires one nonempty relator over two generators whose cyclic
    reduction has zero exponent sums (so b_1 = 2 and the traced path is
    closed).  One open cone per simple hull vertex.
    """
    if len(p.alphabet) != 2 or len(p.relators) != 1:
        raise UnsupportedPresentation(
            f"needs 2 generators and 1 relator, got {len(p.alphabet)} and {len(p.relators)}"
        )
    relator = p.relators[0].cyclically_reduced()
    if relator.is_identity():
        raise UnsupportedPresentation("the relator is trivial after cyclic reduction")
    path = trace_relator(relator)  # its end point is the exponent vector
    if not path.is_closed():
        raise UnsupportedPresentation("unsupported: relator not in commutator subgroup")
    marked = simple_vertices(path)
    hull = [v for v, _ in marked]
    return SigmaDescription(2, vertex_cones(hull, [v for v, mult in marked if mult == 1]), ())
