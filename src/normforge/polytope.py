"""Newton polytopes, Alexander norms, balance centers, and dual norm balls.

All geometry here is exact: lattice points are integer tuples and every
derived quantity (centers, dual vertices, norms) is a ``Fraction``.  No
floating point is used, so face and cone comparisons downstream are
exact equalities.

Convex hulls rest on one line-end rule: a point strictly between two
others on a line is never a vertex, so only the two end points of each
axis-parallel line can be one.  In dimension 2 a monotone chain runs
over the leftmost and rightmost point of each row.  In any other
dimension the rule is applied along every axis in turn (in dimension 1
that leaves the hull itself), and in dimension >= 3 Clarkson's
output-sensitive extreme-point loop (FOCS 1994) runs on the survivors:
one linear program per point against the vertices found so far, solved
by integer-preserving simplex pivots, each outcome checked against its
solution or Farkas certificate.  Lower-dimensional point sets are
legal: membership in a convex hull makes no reference to
full-dimensionality.

The Alexander norm is computed in integers: the class is scaled by the
lcm of its denominators, so each support term costs one integer dot
product and the only ``Fraction`` is the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from ._record import record
from .errors import InvariantError
from .laurent import LaurentPoly

Point = tuple[int, ...]
QVec = tuple[Fraction, ...]


# --------------------------------------------------------------------------
# Exact convex hulls
# --------------------------------------------------------------------------


def _hull_2d(points: set[Point]) -> list[Point]:
    """Extreme points of a set of distinct planar points, counterclockwise from the lex-min.

    A point strictly between two others on a horizontal line is never a
    vertex, so only each row's leftmost and rightmost points are sorted
    and go into the monotone chain.  The chain takes strict turns, so
    collinear non-extreme points are dropped; degenerate (collinear or
    single-point) inputs yield the endpoints only.
    """
    rows: dict[int, list[int]] = {}
    for x, y in points:
        ends = rows.get(y)
        if ends is None:
            rows[y] = [x, x]
        elif x < ends[0]:
            ends[0] = x
        elif x > ends[1]:
            ends[1] = x
    pts = sorted({(x, y) for y, ends in rows.items() for x in ends})
    if len(pts) <= 2:
        return pts

    def cross(o: Point, a: Point, b: Point) -> int:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_hull(v: Sequence[int | Fraction], points: Sequence[Point]) -> bool:
    """Exact test whether v lies in the convex hull of the given points.

    Solves the phase-1 linear program for barycentric coordinates over the
    integers (each coordinate row is scaled by its target's denominator),
    and the answer is checked against its solution or Farkas certificate.
    """
    pts = list(points)
    if not pts:
        return False
    return _lp_feasible(_hull_rows(v, pts))[0]


def _hull_rows(v: Sequence[int | Fraction], pts: Sequence[Point]) -> list[list[int]]:
    # lambda >= 0, sum lambda = 1, sum lambda * q = v, as integer rows [coeffs..., rhs].
    rows = [[1] * len(pts) + [1]]
    for i in range(len(pts[0])):
        den = v[i].denominator
        rows.append([q[i] * den for q in pts] + [v[i].numerator])
    return rows


def _lp_feasible(rows: list[list[int]]) -> tuple[bool, list[int], int]:
    """Decide whether x >= 0 with A x = b exists, for integer rows [A | b].

    Returns what ``_simplex`` returns, (True, x, d) with x / d a solution
    or (False, y, d) with y A <= 0 < y b, once the witness has been
    checked here with integer arithmetic.
    """
    n = len(rows[0]) - 1
    feasible, vector, d = _simplex(rows)
    if feasible:
        if d <= 0 or any(x < 0 for x in vector) or any(
            sum(a * x for a, x in zip(row, vector)) != d * row[n] for row in rows
        ):
            raise InvariantError("linear program", f"{vector}/{d} does not solve A x = b, x >= 0")
    elif sum(y * row[n] for y, row in zip(vector, rows)) <= 0 or any(
        sum(y * row[j] for y, row in zip(vector, rows)) > 0 for j in range(n)
    ):
        raise InvariantError("linear program", f"{vector} is not a Farkas vector (y A <= 0 < y b)")
    return feasible, vector, d


def _simplex(rows: list[list[int]]) -> tuple[bool, list[int], int]:
    """Phase-1 simplex with Bland's rule and fraction-free integer pivots.

    The tableau [A | I | b] (rows signed so that b >= 0, one artificial
    column per row) is kept integral over one common denominator d > 0,
    the current basis determinant: a pivot on p = T[r][e] maps every other
    row to (p * row - row[e] * T[r]) // d, exactly, and makes p the new d
    (Edmonds 1967).  The last row is the phase-1 objective, the sum of the
    artificials; positive entries price the entering columns.

    Returns (True, x, d) with x / d a basic solution, or (False, y, d)
    with y A <= 0 < y b, read from the objective row's artificial columns.
    """
    m = len(rows)
    n = len(rows[0]) - 1
    signs = [-1 if row[n] < 0 else 1 for row in rows]
    tab = [
        [s * a for a in row[:n]] + [int(k == r) for k in range(m)] + [s * row[n]]
        for r, (s, row) in enumerate(zip(signs, rows))
    ]
    objective = [sum(col) for col in zip(*tab)]
    objective[n:n + m] = [0] * m
    tab.append(objective)
    basis = [n + r for r in range(m)]
    d = 1
    while True:
        enter = next((j for j in range(n) if objective[j] > 0), None)
        if enter is None:
            break
        # Ratio test, cross-multiplied since all rows share d; Bland tie-break
        # on basis index.
        leave = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0 and (leave is None or (tab[r][-1] * tab[leave][enter], basis[r])
                          < (tab[leave][-1] * a, basis[leave])):
                leave = r
        if leave is None:
            raise InvariantError("linear program", "phase-1 objective is unbounded")
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for r, row in enumerate(tab):
            if r != leave:
                f = row[enter]
                tab[r] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        objective = tab[m]
        basis[leave] = enter
        d = p
    if objective[-1] == 0:
        x = [0] * n
        for r, j in enumerate(basis):
            if j < n:
                x[j] = tab[r][-1]
        return True, x, d
    # The phase-1 duals are pi_k = (objective[n + k] + d) / d on the signed rows.
    return False, [s * (objective[n + k] + d) for k, s in enumerate(signs)], d


def _line_ends(points: set[Point], axis: int) -> set[Point]:
    """The two end points of every line of ``points`` parallel to coordinate ``axis``."""
    lines: dict[Point, list[Point]] = {}
    for p in points:
        key = p[:axis] + p[axis + 1:]
        ends = lines.get(key)
        if ends is None:
            lines[key] = [p, p]
        elif p[axis] < ends[0][axis]:
            ends[0] = p
        elif p[axis] > ends[1][axis]:
            ends[1] = p
    return {p for ends in lines.values() for p in ends}


def hull_vertices(points: Iterable[Point]) -> list[Point]:
    """Extreme points of a lattice point set, in canonical order.

    Dimension <= 2 gives the counterclockwise hull cycle starting at the
    lexicographically smallest vertex; higher dimensions give the extreme
    points in lexicographic order.  First only the end points of
    axis-parallel lines are kept: along rows in dimension 2, and along
    every axis in turn in any other dimension (ahead of Clarkson's loop
    in dimension >= 3).  A point strictly between two others on a line
    is never a vertex, so each step keeps every vertex and the hull.
    """
    distinct = set(map(tuple, points))
    if not distinct:
        return []
    dim = len(next(iter(distinct)))
    if any(len(p) != dim for p in distinct):
        raise ValueError("points must share one ambient dimension")
    if dim == 2:
        return _hull_2d(distinct)
    for axis in range(dim):
        distinct = _line_ends(distinct, axis)
    pts = sorted(distinct)
    if len(pts) <= 2:
        return pts
    # Clarkson's output-sensitive loop: ``found`` holds vertices only, and
    # each LP either puts p in their hull or returns a direction c with
    # c.p > c.q for every found q; the lex-greatest maximiser of c over the
    # points is then a vertex not yet found (the lex-greatest point of a
    # face is a vertex, so pruning never removes it).
    found = [pts[-1]]
    for p in pts:
        while p not in found:
            inside, y, _ = _lp_feasible(_hull_rows(p, found))
            if inside:
                break
            c = y[1:]
            found.append(max(pts, key=lambda s: (sum(map(mul, c, s)), s)))
    return sorted(found)


@record
class LatticePolytope:
    """Convex hull of labeled lattice points (the Newton polytope role).

    ``hull`` holds the extreme points in canonical order and
    ``coefficients[i]`` the label of ``hull[i]``, the nonzero
    coefficient of its monomial.
    """

    dim: int
    hull: tuple[Point, ...]
    coefficients: tuple[int, ...]


def lattice_polytope(points: Sequence[Point], coefficients: Sequence[int]) -> LatticePolytope:
    """The polytope of distinct labeled points, ``coefficients[i]`` labeling ``points[i]``."""
    if len(points) != len(coefficients):
        raise ValueError("need one coefficient per point")
    if not points:
        raise ValueError("a polytope needs at least one point")
    labels = dict(zip(map(tuple, points), coefficients))
    if len(labels) != len(points):
        raise ValueError("a point is repeated")
    return _labeled_hull(labels)


def newton_polytope(p: LaurentPoly) -> LatticePolytope:
    """Convex hull of the support of p, with coefficients attached.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> P = newton_polytope(a**2 * b - a * b - a + 1)
    >>> P.hull, P.coefficients
    (((0, 0), (1, 0), (2, 1), (1, 1)), (1, -1, 1, -1))
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no Newton polytope")
    return _labeled_hull(p.terms)


def _labeled_hull(labels: dict[Point, int]) -> LatticePolytope:
    hull = tuple(hull_vertices(labels))
    return LatticePolytope(len(hull[0]), hull, tuple(labels[v] for v in hull))


# --------------------------------------------------------------------------
# Alexander norm
# --------------------------------------------------------------------------


def alexander_norm(p: LaurentPoly, phi: Sequence[int | Fraction]) -> Fraction:
    """sup over support pairs of phi(g_i - g_j) = max - min of phi on the support.

    A seminorm: nonnegative, positively homogeneous, subadditive.  phi is
    scaled to integers by the lcm of its denominators, so each term costs
    one integer dot product; the width is divided back once, as a
    ``Fraction``.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> alexander_norm(a**2 * b - a * b - a + 1, (1, 0))
    Fraction(2, 1)
    """
    if p.is_zero():
        raise ValueError("the Alexander norm of the zero polynomial is undefined")
    if len(phi) != p.nvars:
        raise ValueError("class has wrong dimension")
    q = [Fraction(x) for x in phi]
    scale = lcm(*(x.denominator for x in q))
    w = [x.numerator * (scale // x.denominator) for x in q]
    values = [sum(map(mul, w, e)) for e in p.terms]
    return Fraction(max(values) - min(values), scale)


# --------------------------------------------------------------------------
# Balance centers and dual balls
# --------------------------------------------------------------------------


def balance_center(poly: LatticePolytope) -> QVec | None:
    """The point z0 about which the hull is symmetric, or None.

    z0 is the vertex average; the polytope is balanced iff v -> 2*z0 - v
    permutes the hull vertex set.
    """
    n = len(poly.hull)
    z0 = tuple(
        Fraction(sum(v[i] for v in poly.hull), n) for i in range(poly.dim)
    )
    hull_set = set(poly.hull)
    for v in poly.hull:
        image = tuple(2 * z0[i] - v[i] for i in range(poly.dim))
        if any(x.denominator != 1 for x in image) or tuple(int(x) for x in image) not in hull_set:
            return None
    return z0


@record
class Face:
    """Top-dimensional face of the dual ball attached to a hull vertex v.

    The face is { phi : phi(x - z0) <= 1/2 for all hull x, phi(v - z0) = 1/2 }.
    ``normal`` is v - z0.  In rank 2 with a full-dimensional hull, the
    face is a segment and ``endpoints`` holds its two dual vertices.
    """

    vertex: Point
    normal: QVec
    endpoints: tuple[QVec, QVec] | None


@record
class NormBall:
    """The dual unit ball: half the classical polytope dual about z0.

    ``vertices`` is the counterclockwise dual vertex cycle, present only
    in rank 2 with a full-dimensional hull (rank 1 gives the two
    interval endpoints).  The face-functional description in ``faces``
    is available in every rank.
    """

    center: QVec
    faces: tuple[Face, ...]
    vertices: tuple[QVec, ...] | None


def _solve2(a: QVec, b: QVec, rhs: Fraction) -> QVec:
    det = a[0] * b[1] - a[1] * b[0]
    if det == 0:
        raise ValueError("degenerate corner: adjacent face normals are parallel")
    x = (rhs * b[1] - a[1] * rhs) / det
    y = (a[0] * rhs - rhs * b[0]) / det
    return (x, y)


def dual_ball(poly: LatticePolytope) -> NormBall:
    """Dual of a balanced polytope, scaled so supporting values are 1/2.

    Faces correspond one-to-one with hull vertices.  Explicit vertex
    geometry is produced in rank <= 2 (full-dimensional hulls only);
    otherwise the functional description alone is returned.  A one-point
    hull has the norm identically 0, so its dual ball is the whole space:
    no faces and no vertices.
    """
    z0 = balance_center(poly)
    if z0 is None:
        raise ValueError("polytope is not balanced; the dual ball needs a center")
    if len(poly.hull) == 1:
        return NormBall(z0, (), None)
    half = Fraction(1, 2)
    normals = {v: tuple(v[i] - z0[i] for i in range(poly.dim)) for v in poly.hull}

    vertices: tuple[QVec, ...] | None = None
    endpoints: dict[Point, tuple[QVec, QVec]] = {}
    if poly.dim == 1 and len(poly.hull) == 2:
        lo, hi = poly.hull
        h = normals[hi][0]  # = (hi - lo) / 2 > 0
        vertices = ((-half / h,), (half / h,))
        endpoints[hi] = ((half / h,), (half / h,))
        endpoints[lo] = ((-half / h,), (-half / h,))
    elif poly.dim == 2 and len(poly.hull) >= 3:
        cycle = list(poly.hull)  # counterclockwise
        n = len(cycle)
        corner: list[QVec] = []
        for k in range(n):
            v, w = cycle[k], cycle[(k + 1) % n]
            corner.append(_solve2(normals[v], normals[w], half))
        for k, v in enumerate(cycle):
            endpoints[v] = (corner[(k - 1) % n], corner[k])
        for phi in corner:
            for v in cycle:
                if sum(phi[i] * normals[v][i] for i in range(2)) > half:
                    raise InvariantError(
                        "dual_ball",
                        f"dual vertex ({', '.join(map(str, phi))}) violates "
                        f"the supporting inequality of hull vertex {v}",
                    )
        start = min(range(n), key=lambda k: corner[k])
        vertices = tuple(corner[(start + k) % n] for k in range(n))

    faces = tuple(Face(v, normals[v], endpoints.get(v)) for v in poly.hull)
    return NormBall(z0, faces, vertices)
