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
subgroup), which contains the BNS invariant of the group itself; the
comparator below certifies containments between two such descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _igcd
from typing import Iterable, Sequence

from .alexander import alexander_data
from .laurent import LaurentPoly
from .polytope import newton_polytope
from .words import Presentation

Vec = tuple[int, ...]


def primitive(vector: Sequence[int]) -> Vec:
    """Scale a nonzero integer vector by 1/gcd, keeping orientation."""
    v = tuple(int(x) for x in vector)
    g = 0
    for x in v:
        g = _igcd(g, x)
    if g == 0:
        raise ValueError("the zero vector has no direction")
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class OpenCone:
    """Open cone { chi : chi . d > 0 for every constraint d }, labeled by a vertex."""

    label: Vec
    constraints: tuple[Vec, ...]  # primitive, deduplicated, sorted


def _make_cone(label: Vec, others: Iterable[Vec]) -> OpenCone:
    constraints = sorted(
        {primitive(tuple(a - b for a, b in zip(label, w))) for w in others}
    )
    return OpenCone(tuple(label), tuple(constraints))


def cone_contains(cone: OpenCone, chi: Sequence[int]) -> bool:
    """Exact membership: every constraint pairs strictly positively with chi."""
    direction = tuple(chi)
    if len(direction) != len(cone.label):
        raise ValueError("rank mismatch between cone and sphere class")
    return all(
        sum(c * x for c, x in zip(d, direction)) > 0 for d in cone.constraints
    )


@dataclass(frozen=True)
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
    components = []
    excluded = []
    for v in poly.hull:
        if abs(poly.coefficient(v)) == 1:
            components.append(_make_cone(v, (w for w in poly.hull if w != v)))
        else:
            excluded.append(v)
    return SigmaDescription(p.nvars, tuple(components), tuple(excluded))


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


def _cross(u: Dir, v: Dir) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class Arc:
    """Open counterclockwise arc on S^1 from ``start`` to ``end``, endpoints excluded.

    Widths never exceed pi (cones are halfplane intersections); the full
    circle, which arises only from a constraint-free cone, is flagged.
    """

    start: Dir
    end: Dir
    full_circle: bool = False


def interior_direction(cone: OpenCone) -> Dir | None:
    """Some primitive direction strictly inside a rank-2 cone, or None if empty."""
    if len(cone.label) != 2:
        raise ValueError("interior sampling is implemented for rank 2 only")
    if not cone.constraints:
        return (1, 0)
    survivors = _boundary_candidates(cone)
    candidates: list[Dir] = []
    if survivors:
        s = (sum(u[0] for u in survivors), sum(u[1] for u in survivors))
        if s != (0, 0):
            candidates.append(primitive(s))
    candidates.extend(cone.constraints)
    for c in candidates:
        if all(_dot(c, d) > 0 for d in cone.constraints):
            return primitive(c)
    return None


def _boundary_candidates(cone: OpenCone) -> list[Dir]:
    # Boundary rays of the closed cone lie among the rotations of the
    # constraint normals by ±90 degrees.
    seen: set[Dir] = set()
    out: list[Dir] = []
    for d in cone.constraints:
        for u in ((d[1], -d[0]), (-d[1], d[0])):
            if u not in seen and all(_dot(u, c) >= 0 for c in cone.constraints):
                seen.add(u)
                out.append(u)
    return out


def cone_arc(cone: OpenCone) -> Arc | None:
    """The open arc a rank-2 cone cuts on the circle; None when the cone is empty."""
    if len(cone.label) != 2:
        raise ValueError("arcs exist in rank 2 only")
    if not cone.constraints:
        return Arc((1, 0), (1, 0), full_circle=True)
    s = interior_direction(cone)
    if s is None:
        return None
    survivors = _boundary_candidates(cone)
    cw = [u for u in survivors if _cross(u, s) > 0]
    ccw = [u for u in survivors if _cross(s, u) > 0]
    assert cw and ccw, "a nonempty proper cone has boundary on both sides"
    start = cw[0]
    for u in cw[1:]:
        if _cross(start, u) > 0:
            start = u
    end = ccw[0]
    for u in ccw[1:]:
        if _cross(u, end) > 0:
            end = u
    return Arc(primitive(start), primitive(end))


def direction_in_arc(d: Dir, arc: Arc, closed: bool = False) -> bool:
    """Membership of a direction in an arc of width <= pi (or the full circle)."""
    if arc.full_circle:
        return True
    dd = primitive(d)
    if closed and (dd == arc.start or dd == arc.end):
        return True
    return _cross(arc.start, dd) > 0 and _cross(dd, arc.end) > 0


def _angular_sort(dirs: Iterable[Dir]) -> list[Dir]:
    # Counterclockwise from (1, 0): order by half-plane, then by cross product.
    def half(d: Dir) -> int:
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1

    import functools

    def cmp(u: Dir, v: Dir) -> int:
        if u == v:
            return 0
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = _cross(u, v)
        return -1 if c > 0 else 1

    return sorted(set(dirs), key=functools.cmp_to_key(cmp))


@dataclass(frozen=True)
class SphereArcs:
    """Rank-2 arc picture of a SigmaDescription.

    ``arcs`` is parallel to the components (None marks an empty cone).
    When the union misses only finitely many directions, they are listed
    in ``complement_points``; otherwise ``complement_finite`` is False
    and the listed points are just the uncovered boundary directions.
    """

    arcs: tuple[Arc | None, ...]
    complement_finite: bool
    complement_points: tuple[Dir, ...]


def rank2_arcs(sigma: SigmaDescription) -> SphereArcs:
    """Arcs and circle-complement of a rank-2 invariant, all exact.

    The complement is probed on the finite set of candidate boundary
    directions (arc endpoints, their antipodes and perpendiculars);
    between consecutive candidates coverage is constant, so a mediant
    sample per gap decides finiteness exactly.
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
        assert mid != (0, 0), "enriched candidates are less than pi apart"
        if not covered(primitive(mid)):
            finite = False
            break
    complement = tuple(d for d in ordered if not covered(d))
    return SphereArcs(arcs, finite, complement)


# --------------------------------------------------------------------------
# Containment comparison
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentComparison:
    """Relation of one inner component to the outer description.

    ``relation`` is one of "equal", "properly_contained", "not_contained"
    or "empty".  Witnesses are primitive directions checkable with
    :func:`cone_contains` alone: for proper containment a direction in
    the outer cone missing from the inner one; for non-containment a
    direction of the inner cone missed by every outer component.
    """

    inner_label: Vec
    relation: str
    outer_label: Vec | None
    witness: Vec | None
    certified: bool


def _mediant(u: Dir, v: Dir) -> Dir:
    return primitive((u[0] + v[0], u[1] + v[1]))


def _compare_rank2(
    inner: OpenCone, outer_components: Sequence[OpenCone]
) -> ComponentComparison:
    arc_in = cone_arc(inner)
    if arc_in is None:
        return ComponentComparison(inner.label, "empty", None, None, True)
    sample = interior_direction(inner)
    assert sample is not None
    host = next(
        (c for c in outer_components if cone_contains(c, sample)), None
    )
    if host is None:
        return ComponentComparison(inner.label, "not_contained", None, sample, True)
    arc_out = cone_arc(host)
    assert arc_out is not None
    if arc_out.full_circle:
        if arc_in.full_circle:
            return ComponentComparison(inner.label, "equal", host.label, None, True)
        witness = (-sample[0], -sample[1])
        return ComponentComparison(
            inner.label, "properly_contained", host.label, witness, True
        )
    if arc_in.full_circle:
        witness = (-interior_direction(host)[0], -interior_direction(host)[1])
        return ComponentComparison(
            inner.label, "not_contained", None, primitive(witness), True
        )
    if arc_in == arc_out:
        return ComponentComparison(inner.label, "equal", host.label, None, True)
    inside = direction_in_arc(arc_in.start, arc_out, closed=True) and direction_in_arc(
        arc_in.end, arc_out, closed=True
    )
    if inside:
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
        raise AssertionError("distinct nested arcs must admit a mediant witness")
    # Partial overlap: walk mediants from the sample toward each inner
    # boundary until a direction inside the inner cone escapes the host.
    for target in (arc_in.start, arc_in.end):
        probe = sample
        for _ in range(64):
            probe = _mediant(probe, target)
            if cone_contains(inner, probe) and not cone_contains(host, probe):
                return ComponentComparison(
                    inner.label, "not_contained", None, probe, True
                )
    return ComponentComparison(inner.label, "not_contained", None, None, False)


def _compare_sampled(
    inner: OpenCone, outer_components: Sequence[OpenCone], rank: int
) -> ComponentComparison:
    # Rank > 2: no exact cell decomposition here; verdicts are sampled
    # from a deterministic grid and labeled non-certified.
    from itertools import product

    samples = [
        v
        for v in product(range(-2, 3), repeat=rank)
        if any(v) and cone_contains(inner, v)
    ]
    if not samples:
        return ComponentComparison(inner.label, "empty", None, None, False)
    hosts = [
        c
        for c in outer_components
        if all(cone_contains(c, s) for s in samples)
    ]
    if not hosts:
        stray = next(
            (
                s
                for s in samples
                if not any(cone_contains(c, s) for c in outer_components)
            ),
            None,
        )
        return ComponentComparison(
            inner.label, "not_contained", None, tuple(primitive(stray)) if stray else None, False
        )
    host = hosts[0]
    if set(host.constraints) == set(inner.constraints):
        return ComponentComparison(inner.label, "equal", host.label, None, False)
    witness = next(
        (
            tuple(primitive(v))
            for v in product(range(-2, 3), repeat=rank)
            if any(v) and cone_contains(host, v) and not cone_contains(inner, v)
        ),
        None,
    )
    relation = "properly_contained" if witness else "equal"
    return ComponentComparison(inner.label, relation, host.label, witness, False)


def compare_sigma(
    inner: SigmaDescription, outer: SigmaDescription
) -> tuple[ComponentComparison, ...]:
    """Per inner component: equal / properly_contained / not_contained.

    Rank-2 verdicts are exact with verifiable witness directions; higher
    rank falls back to deterministic sampling, flagged non-certified.
    """
    if inner.rank != outer.rank:
        raise ValueError("descriptions have different ranks")
    if inner.rank == 2:
        return tuple(
            _compare_rank2(c, outer.components) for c in inner.components
        )
    return tuple(
        _compare_sampled(c, outer.components, inner.rank) for c in inner.components
    )
