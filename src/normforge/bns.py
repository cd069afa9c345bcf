"""BNS invariants of cyclic modules via Newton-polytope vertices.

For a nonzero p in the group ring of Q = Z^rank, the invariant of the
cyclic module ZQ/(p) is an open subset of the character sphere
S(Q) = (Hom(Q, R) \\ {0}) / R^+.  Its connected components correspond
one-to-one with the vertices of the Newton polytope of p whose
coefficient is ±1 (Bieri-Strebel): the vertex v contributes the open
cone

    C_v = { [chi] : chi(v - w) > 0 for every other hull vertex w }.

Cones are stored by their primitive constraint vectors, which makes
membership testing exact in any rank.  In rank 2 every nonempty cone is
an open circular arc; arcs are computed with exact integer arithmetic,
ordered counterclockwise and anchored at (1, 0), so golden outputs are
deterministic.

Applied to the Alexander polynomial of a presentation this computes the
BNS invariant of the Alexander invariant (the metabelianized commutator
subgroup), which contains the BNS invariant of the group itself.  The
comparator below decides containments between two rank-2 descriptions
exactly, with a witness direction for every verdict; other ranks are
refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from ._record import record
from .alexander import alexander_data
from .errors import InvariantError
from .laurent import LaurentPoly
from .polytope import newton_polytope
from .words import Presentation

Vec = tuple[int, ...]


def primitive(vector: Sequence[int]) -> Vec:
    """Scale a nonzero integer vector by 1/gcd, keeping orientation."""
    v = tuple(int(x) for x in vector)
    g = gcd(*v)
    if g == 0:
        raise ValueError("the zero vector has no direction")
    return tuple(x // g for x in v)


@record
class OpenCone:
    """Open cone { chi : chi . d > 0 for every constraint d }, labeled by a vertex."""

    label: Vec
    constraints: tuple[Vec, ...]  # primitive, deduplicated, sorted


def vertex_cones(hull: Sequence[Vec], selected: Iterable[Vec]) -> tuple[OpenCone, ...]:
    """The cone C_v of each selected vertex v of ``hull``, in the order selected."""
    cones = []
    for v in selected:
        constraints = {primitive(tuple(a - b for a, b in zip(v, w))) for w in hull if w != v}
        cones.append(OpenCone(tuple(v), tuple(sorted(constraints))))
    return tuple(cones)


def cone_contains(cone: OpenCone, chi: Sequence[int]) -> bool:
    """Exact membership: every constraint pairs strictly positively with chi."""
    direction = tuple(chi)
    if len(direction) != len(cone.label):
        raise ValueError("rank mismatch between cone and sphere class")
    return all(
        sum(c * x for c, x in zip(d, direction)) > 0 for d in cone.constraints
    )


@record
class SigmaDescription:
    """A BNS invariant as a finite union of open cones on the character sphere.

    ``excluded_vertices`` lists hull vertices whose coefficient is not
    ±1; they contribute no component.
    """

    rank: int
    components: tuple[OpenCone, ...]
    excluded_vertices: tuple[Vec, ...]


def sigma_principal(p: LaurentPoly) -> SigmaDescription:
    """Components of the invariant of ZQ/(p): one cone per ±1 hull vertex.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> s = sigma_principal(a**2 * b - a * b - a + 1)
    >>> [c.label for c in s.components]
    [(0, 0), (1, 0), (2, 1), (1, 1)]
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no invariant")
    poly = newton_polytope(p)
    unit = {v: abs(c) == 1 for v, c in zip(poly.hull, poly.coefficients)}
    return SigmaDescription(
        p.nvars,
        vertex_cones(poly.hull, [v for v in poly.hull if unit[v]]),
        tuple(v for v in poly.hull if not unit[v]),
    )


def sigma_alexander(pres: Presentation) -> SigmaDescription:
    """The invariant computed from the Alexander polynomial of a presentation."""
    data = alexander_data(pres)
    if data.abelianization.rank < 1:
        raise ValueError("the free abelianized quotient is trivial (b_1 = 0)")
    if data.degenerate:
        raise ValueError("degenerate Alexander polynomial (all E_1 generators vanish)")
    return sigma_principal(data.polynomial)


# --------------------------------------------------------------------------
# Rank-2 arcs
# --------------------------------------------------------------------------

Dir = tuple[int, int]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


@record
class Arc:
    """Open counterclockwise arc on S^1 from ``start`` to ``end``, endpoints excluded.

    Widths never exceed pi (cones are halfplane intersections); the full
    circle, which arises only from a constraint-free cone, is flagged.
    """

    start: Dir
    end: Dir
    full_circle: bool = False


def _arc_sample(arc: Arc) -> Dir:
    # The bisector of the arc; for a half-plane (antipodal ends) its normal.
    if arc.full_circle:
        return (1, 0)
    if arc.start == (-arc.end[0], -arc.end[1]):
        return (-arc.start[1], arc.start[0])
    return primitive((arc.start[0] + arc.end[0], arc.start[1] + arc.end[1]))


def cone_arc(cone: OpenCone) -> Arc | None:
    """The open arc a rank-2 cone cuts on the circle; None when the cone is empty.

    The arc runs from the one clockwise turn (d_1, -d_0) of a constraint d
    in every closed half-plane to the one such counterclockwise turn
    (-d_1, d_0); it is kept only if its bisector is strictly inside.
    """
    if len(cone.label) != 2:
        raise ValueError("arcs exist in rank 2 only")
    if not cone.constraints:
        return Arc((1, 0), (1, 0), full_circle=True)

    def boundary(turns: Iterable[Dir]) -> Dir | None:
        return next(
            (u for u in turns if all(_dot(u, c) >= 0 for c in cone.constraints)), None
        )

    start = boundary((d[1], -d[0]) for d in cone.constraints)
    end = boundary((-d[1], d[0]) for d in cone.constraints)
    if start is None or end is None:
        return None
    arc = Arc(start, end)
    return arc if cone_contains(cone, _arc_sample(arc)) else None


def _angular_sort(dirs: Iterable[Dir]) -> list[Dir]:
    # Counterclockwise from (1, 0): the upper half-plane (with (1, 0)) before
    # the lower one (with (-1, 0)); within each, the axis direction first,
    # then by -x/y, which increases with the angle.
    return sorted(
        set(dirs),
        key=lambda d: (d[1] < 0 or (d[1] == 0 and d[0] < 0), d[1] != 0, Fraction(-d[0], d[1] or 1)),
    )


@record
class SphereArcs:
    """Rank-2 arc picture of a SigmaDescription.

    ``arcs`` is parallel to the components (None marks an empty cone).
    When the union misses only finitely many directions, they are listed
    in ``complement_points``.  Otherwise ``complement_finite`` is False
    and ``complement_points`` lists every uncovered candidate direction
    (arc endpoints, their antipodes and perpendiculars), which samples the
    uncovered set but does not describe it.
    """

    arcs: tuple[Arc | None, ...]
    complement_finite: bool
    complement_points: tuple[Dir, ...]


def rank2_arcs(sigma: SigmaDescription) -> SphereArcs:
    """Arcs and circle-complement of a rank-2 invariant, all exact.

    The complement is probed on the finite set of candidate boundary
    directions (arc endpoints, their antipodes and perpendiculars);
    between consecutive candidates coverage is constant, so a mediant
    sample per gap decides finiteness exactly.  Every uncovered candidate
    is returned, whether or not the complement is finite.
    """
    if sigma.rank != 2:
        raise ValueError(f"arcs exist in rank 2 only, got rank {sigma.rank}")
    arcs = tuple(cone_arc(c) for c in sigma.components)
    if any(a is not None and a.full_circle for a in arcs):
        return SphereArcs(arcs, True, ())

    events: set[Dir] = set()
    for a in arcs:
        if a is not None:
            events.update((a.start, a.end))
    if not events:
        return SphereArcs(arcs, False, ())

    # Enrich with antipodes and perpendiculars so consecutive candidate
    # directions are strictly less than pi apart; then mediants of
    # consecutive pairs are valid interior samples of every gap.
    enriched: set[Dir] = set()
    for d in events:
        enriched.update(
            {d, (-d[0], -d[1]), (-d[1], d[0]), (d[1], -d[0])}
        )
    ordered = _angular_sort(enriched)

    def covered(d: Dir) -> bool:
        return any(cone_contains(c, d) for c in sigma.components)

    finite = True
    for k, d in enumerate(ordered):
        nxt = ordered[(k + 1) % len(ordered)]
        mid = (d[0] + nxt[0], d[1] + nxt[1])
        if mid == (0, 0):
            raise InvariantError(
                "circle complement", f"consecutive candidates {d} and {nxt} are antipodal"
            )
        if not covered(primitive(mid)):
            finite = False
            break
    complement = tuple(d for d in ordered if not covered(d))
    return SphereArcs(arcs, finite, complement)


# --------------------------------------------------------------------------
# Containment comparison
# --------------------------------------------------------------------------


@record
class ComponentComparison:
    """Relation of one inner component to the outer description.

    ``relation`` is one of "equal", "properly_contained", "not_contained"
    or "empty".  Witnesses are primitive directions checkable with
    :func:`cone_contains` alone: for proper containment a direction in
    the outer cone missing from the inner one; for non-containment a
    direction of the inner cone missed by every outer component.
    ``certified`` is False only for a non-containment whose escape could
    not be confirmed (witness None), which needs overlapping outer cones.
    The fields, in order, are the keys of its JSON report.
    """

    inner_label: Vec
    relation: str
    outer_label: Vec | None
    witness: Vec | None
    certified: bool


def _mediant(u: Dir, v: Dir) -> Dir:
    return primitive((u[0] + v[0], u[1] + v[1]))


def _escape(
    inner: OpenCone, witness: Dir, outer_components: Sequence[OpenCone]
) -> ComponentComparison:
    # Non-containment is certified only once cone membership confirms
    # the witness lies in the inner cone and in no outer component.
    if cone_contains(inner, witness) and not any(
        cone_contains(c, witness) for c in outer_components
    ):
        return ComponentComparison(inner.label, "not_contained", None, witness, True)
    return ComponentComparison(inner.label, "not_contained", None, None, False)


def _compare_rank2(
    inner: OpenCone, outer_components: Sequence[OpenCone]
) -> ComponentComparison:
    arc_in = cone_arc(inner)
    if arc_in is None:
        return ComponentComparison(inner.label, "empty", None, None, True)
    sample = _arc_sample(arc_in)
    host = next(
        (c for c in outer_components if cone_contains(c, sample)), None
    )
    if host is None:
        return ComponentComparison(inner.label, "not_contained", None, sample, True)
    arc_out = cone_arc(host)
    if arc_out is None:
        raise InvariantError(
            "containment", f"the cone {host.label} contains {sample} but has no arc"
        )
    if arc_out.full_circle:
        if arc_in.full_circle:
            return ComponentComparison(inner.label, "equal", host.label, None, True)
        witness = (-sample[0], -sample[1])
        return ComponentComparison(
            inner.label, "properly_contained", host.label, witness, True
        )
    # A boundary ray of the host misses the open host and every outer cone
    # disjoint from it; it escapes whenever it lies in the open inner cone.
    # That holds for both rays when the inner cone is the whole circle, and
    # for the ray on a side where the inner arc leaves the closed host arc,
    # the closure { d : d . c >= 0 for every host constraint c }.
    if arc_in.full_circle:
        return _escape(inner, arc_out.start, outer_components)
    if arc_in == arc_out:
        return ComponentComparison(inner.label, "equal", host.label, None, True)
    for inner_dir, outer_dir in ((arc_in.start, arc_out.start), (arc_in.end, arc_out.end)):
        if not all(_dot(inner_dir, c) >= 0 for c in host.constraints):
            return _escape(inner, outer_dir, outer_components)
    # Proper containment: produce a direction strictly between the
    # differing boundary pair by the mediant construction.
    for outer_dir, inner_dir in (
        (arc_out.start, arc_in.start),
        (arc_in.end, arc_out.end),
    ):
        if outer_dir != inner_dir:
            w = _mediant(outer_dir, inner_dir)
            if cone_contains(host, w) and not cone_contains(inner, w):
                return ComponentComparison(
                    inner.label, "properly_contained", host.label, w, True
                )
    raise InvariantError(
        "containment", f"no mediant separates the nested arcs of {inner.label} and {host.label}"
    )


def compare_sigma(
    inner: SigmaDescription, outer: SigmaDescription
) -> tuple[ComponentComparison, ...]:
    """Per inner component: equal / properly_contained / not_contained / empty.

    Exact in rank 2, where every cone is an arc: each verdict carries a
    witness direction checkable with :func:`cone_contains` alone.  A
    ``not_contained`` verdict is left non-certified (witness None) only
    when no escape can be confirmed, which needs overlapping outer cones;
    :func:`sigma_principal` and Brown's procedure never build those.
    Other ranks are refused with ``ValueError``.
    """
    if inner.rank != outer.rank:
        raise ValueError("descriptions have different ranks")
    if inner.rank != 2:
        raise ValueError(f"cone comparison is exact in rank 2 only, got rank {inner.rank}")
    return tuple(_compare_rank2(c, outer.components) for c in inner.components)
