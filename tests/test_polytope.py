import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest

from normforge import polytope
from normforge.alexander import alexander_polynomial
from normforge.laurent import LaurentPoly
from normforge.polytope import (
    _lp_feasible,
    alexander_norm,
    balance_center,
    dual_ball,
    hull_vertices,
    lattice_polytope,
    newton_polytope,
    point_in_hull,
)
from normforge.words import parse_presentation_text

GOLDEN = Path(__file__).resolve().parent / "golden"

A = LaurentPoly.variable(2, 0)
B = LaurentPoly.variable(2, 1)


# ----------------------------------------------------------------------
# Independent extremality oracle: Caratheodory enumeration with exact
# Gaussian elimination; shares no code with the production hull paths.
# ----------------------------------------------------------------------


def _solve_barycentric(subset, v):
    k = len(subset)
    d = len(v)
    rows = [[Fraction(p[i]) for p in subset] for i in range(d)]
    rows.append([Fraction(1)] * k)
    rhs = [Fraction(x) for x in v] + [Fraction(1)]
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if any(all(row[c] == 0 for c in range(k)) and row[k] != 0 for row in m):
        return None  # inconsistent
    if r < k:
        return None  # underdetermined; a larger subset will decide
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = m[i][k]
    return sol


def in_hull_oracle(v, points):
    d = len(v)
    for k in range(1, d + 2):
        for subset in combinations(points, k):
            sol = _solve_barycentric(subset, v)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def extreme_points_oracle(points):
    out = []
    for p in points:
        others = [q for q in points if q != p]
        if not others or not in_hull_oracle(p, others):
            out.append(p)
    return sorted(out)


def hull_certificate_3d(points, vertices):
    """Whether ``vertices`` are exactly the vertices of a full-dimensional hull in Z^3.

    Polynomial, where :func:`extreme_points_oracle` is exponential.  The
    facet planes are those through three returned points with every
    returned point on one side.  If every input point satisfies every
    facet, the input lies in the hull of the returned points, so no vertex
    is missing; a returned point whose tight facet normals have rank 3 is
    the one point of three independent supporting planes, so a vertex.
    Facets are taken from the returned points, not from the input: with a
    vertex dropped, planes supporting the whole input would still pass.
    """
    def sub(p, q):
        return tuple(a - b for a, b in zip(p, q))

    def cross(u, w):
        return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])

    def dot(u, w):
        return sum(a * b for a, b in zip(u, w))

    vertices = sorted(set(vertices))
    if not set(vertices) <= set(points):
        return False
    facets = set()
    for p, q, r in combinations(vertices, 3):
        normal = cross(sub(q, p), sub(r, p))
        if normal == (0, 0, 0):
            continue
        offset = dot(normal, p)
        sides = {(h > offset) - (h < offset) for h in (dot(normal, v) for v in vertices)}
        if sides <= {0, -1} or sides <= {0, 1}:
            sign = -1 if 1 in sides else 1
            g = gcd(*normal)
            normal = tuple(sign * a // g for a in normal)
            facets.add((normal, dot(normal, p)))
    if not all(dot(n, x) <= c for n, c in facets for x in points):
        return False
    for v in vertices:
        tight = [n for n, c in facets if dot(n, v) == c]
        if not any(dot(cross(a, b), e) for a, b, e in combinations(tight, 3)):
            return False
    return True


def random_point_corpus(seed=20, count=140):
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        dim = rng.choice([1, 2, 2, 3])
        n = rng.randint(1, 12 if dim < 3 else 9)
        pts = sorted(set(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n)))
        corpus.append(pts)
    return corpus


def higher_dim_corpus(seed=21, count=60):
    """Point sets in dimensions 3-5: general, coplanar, collinear, one point; duplicates kept."""
    rng = random.Random(seed)
    corpus = []
    for k in range(count):
        dim = rng.randint(3, 5)
        n = rng.randint(1, 8)
        kind = k % 4
        if kind == 0:  # even points of a box and midpoints of pairs of them
            base = [tuple(2 * rng.randint(-2, 2) for _ in range(dim)) for _ in range(n // 2 + 1)]
            pts = base + [tuple((x + y) // 2 for x, y in zip(rng.choice(base), rng.choice(base)))
                          for _ in range(n - len(base))]
        elif kind == 1:  # a 2-plane through a random integer point
            base = [rng.randint(-2, 2) for _ in range(dim)]
            u, w = ([rng.randint(-1, 1) for _ in range(dim)] for _ in range(2))
            pts = [tuple(b + s * x + t * y for b, x, y in zip(base, u, w))
                   for s, t in ((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n))]
        elif kind == 2:  # a line, duplicates included
            u = [rng.randint(-2, 2) for _ in range(dim)]
            pts = [tuple(t * x for x in u) for t in (rng.randint(-3, 3) for _ in range(n))]
        else:  # one point, repeated
            pts = [tuple(rng.randint(-3, 3) for _ in range(dim))] * n
        corpus.append(pts)
    return corpus


def dense_corpus(seed=25):
    """Dense lattice sets in dimensions 3-5 whose vertices are known in closed form:
    boxes (their corners) and cross-polytopes |x - c|_1 <= r (the points c +- r e_i).
    Every non-vertex lies strictly inside an axis-parallel line, except the
    cross-polytopes' other boundary points."""
    rng = random.Random(seed)
    for dim in (3, 4, 5):
        for _ in range(3):
            lo = [rng.randint(-3, 3) for _ in range(dim)]
            hi = [a + rng.randint(0, 4 if dim < 5 else 2) for a in lo]
            yield (list(product(*(range(a, b + 1) for a, b in zip(lo, hi)))),
                   sorted(set(product(*zip(lo, hi)))))
        for r in (1, 2, 3):
            c = [rng.randint(-2, 2) for _ in range(dim)]
            cross = [tuple(a + x for a, x in zip(c, p))
                     for p in product(range(-r, r + 1), repeat=dim) if sum(map(abs, p)) <= r]
            yield cross, sorted(tuple(a + s * r * (i == k) for i, a in enumerate(c))
                                for k in range(dim) for s in (-1, 1))


def symmetric_corpus(seed=26, count=24):
    """Centrally symmetric supports in dimensions 3-5, as Alexander polynomials
    have: a random half of a small box, with its mirror image through a
    center; duplicates kept.  Most points lie inside an axis-parallel line."""
    rng = random.Random(seed)
    corpus = []
    for k in range(count):
        dim = 3 + k % 3
        side = [rng.randint(1, 4 if dim == 3 else 2) for _ in range(dim)]
        half = [p for p in product(*(range(w + 1) for w in side)) if rng.random() < 0.85]
        half = half or [(0,) * dim]
        pts = half + [tuple(w - x for w, x in zip(side, p)) for p in half]
        rng.shuffle(pts)
        corpus.append(pts)
    return corpus


def planar_row_corpus(seed=23, count=120, per_row=50):
    """Planar sets by rows of 1..per_row points: random rows, whole rows repeated
    (also at another height), one row, one column, and diagonal collinear sets;
    duplicates kept."""
    rng = random.Random(seed)
    corpus = []
    for k in range(count):
        kind = k % 5
        if kind == 0:  # random rows
            pts = [(rng.randint(-30, 30), y) for y in rng.sample(range(-6, 7), rng.randint(1, 5))
                   for _ in range(rng.randint(1, per_row))]
        elif kind == 1:  # one row's x values at several heights, and the row itself twice
            xs = [rng.randint(-20, 20) for _ in range(rng.randint(1, per_row))]
            ys = rng.sample(range(-4, 5), rng.randint(1, 3))
            pts = [(x, y) for y in ys for x in xs] + [(x, ys[0]) for x in xs]
        elif kind == 2:  # one row
            y = rng.randint(-3, 3)
            pts = [(rng.randint(-9, 9), y) for _ in range(rng.randint(1, per_row))]
        elif kind == 3:  # one column
            x = rng.randint(-3, 3)
            pts = [(x, rng.randint(-9, 9)) for _ in range(rng.randint(1, per_row))]
        else:  # a diagonal line, with duplicates
            u = (rng.randint(1, 3), rng.choice([-3, -2, -1, 1, 2, 3]))
            pts = [(t * u[0], t * u[1]) for t in (rng.randint(-5, 5) for _ in range(per_row))]
        rng.shuffle(pts)
        corpus.append(pts)
    return corpus


def monotone_chain(points):
    """Counterclockwise hull from the lex-min over every distinct point, no pruning."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain = []
    for sweep in (pts, pts[::-1]):
        half = []
        for p in sweep:
            while len(half) >= 2 and cross(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        chain += half[:-1]
    return chain


def random_equality_systems(seed=22, count=400):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        yield [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(m)]


class TestHull:
    def test_golden_quadrilateral(self, delta_golden):
        poly = newton_polytope(delta_golden)
        assert poly.hull == ((0, 0), (1, 0), (2, 1), (1, 1))
        assert poly.coefficients == (1, -1, 1, -1)
        assert poly.dim == 2

    def test_coefficients_follow_the_hull(self):
        # An interior point and a point between two vertices carry no label.
        poly = lattice_polytope([(1, 1), (2, 0), (0, 2), (0, 0), (1, 0), (2, 2)], [7, 2, 3, 4, 8, 5])
        assert poly.hull == ((0, 0), (2, 0), (2, 2), (0, 2))
        assert poly.coefficients == (4, 2, 5, 3)

    def test_lattice_polytope_rejects_bad_labels(self):
        for points, coefficients, message in (
            ([(0, 0), (1, 0), (0, 0)], [1, 2, 3], "a point is repeated"),
            ([(0, 0), (1, 0)], [1], "need one coefficient per point"),
            ([], [], "a polytope needs at least one point"),
        ):
            with pytest.raises(ValueError, match=message):
                lattice_polytope(points, coefficients)

    def test_constant(self):
        poly = newton_polytope(LaurentPoly.constant(3, 5))
        assert poly.hull == ((0, 0, 0),)

    def test_laurent_segment(self):
        p = LaurentPoly(1, {(1,): 1, (-1,): 1})
        assert newton_polytope(p).hull == ((-1,), (1,))

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            newton_polytope(LaurentPoly.zero(2))

    def test_hull_matches_oracle_on_corpus(self):
        for pts in random_point_corpus():
            assert sorted(hull_vertices(pts)) == extreme_points_oracle(pts)

    def test_higher_dimensions_match_oracle(self):
        for pts in higher_dim_corpus():
            assert hull_vertices(pts) == extreme_points_oracle(sorted(set(pts)))

    def test_dense_sets_in_dimensions_3_to_5(self):
        for pts, vertices in dense_corpus():
            assert hull_vertices(pts) == vertices

    def test_small_dense_and_symmetric_sets_against_the_oracle(self):
        sets = [list(product(range(3), range(2), (0,))),
                list(product(range(3), (1,), range(3), (-1,))),
                list(product((0,), range(2), range(3), (2,), (1,)))]
        for dim in (3, 4):  # cross-polytopes with their center
            sets.append([tuple(s * (i == k) for i in range(dim))
                         for k in range(dim) for s in (-1, 1)] + [(0,) * dim])
        rng = random.Random(27)
        for dim in (3, 4, 5):
            for _ in range(3):
                half = [tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(3)]
                sets.append(half + [tuple(-x for x in p) for p in half] + [(0,) * dim])
        for pts in sets:
            assert hull_vertices(pts) == extreme_points_oracle(sorted(set(pts)))

    def test_pruning_keeps_the_hull_of_symmetric_supports(self, monkeypatch):
        corpus = symmetric_corpus()
        pruned = [hull_vertices(pts) for pts in corpus]
        survivors = kept = 0
        for pts in corpus:
            distinct = set(pts)
            for axis in range(len(pts[0])):
                distinct = polytope._line_ends(distinct, axis)
            survivors += len(distinct)
            kept += len(set(pts))
        assert survivors < kept / 2  # the corpus exercises the pruning
        monkeypatch.setattr(polytope, "_line_ends", lambda points, axis: points)
        assert [hull_vertices(pts) for pts in corpus] == pruned

    def test_box_takes_few_linear_programs(self, monkeypatch):
        # Without pruning Clarkson's loop tests each of the 125 points; the
        # axis-line ends of a box are its 8 corners.
        calls = []

        def spy(rows):
            calls.append(rows)
            return _lp_feasible(rows)

        monkeypatch.setattr(polytope, "_lp_feasible", spy)
        assert hull_vertices(product(range(5), repeat=3)) == sorted(product((0, 4), repeat=3))
        assert len(calls) <= 2 * 8

    @pytest.mark.parametrize("name", ["link7", "box5"])
    def test_rank3_hulls_carry_a_facet_certificate(self, name):
        # The exponential oracle reaches about a dozen points in dimension 3;
        # the facet certificate checks the 58-point Newton polytope of
        # link7.pres (16 vertices) and the 5 x 5 x 5 box (its 8 corners).
        if name == "link7":
            text = (GOLDEN / "link7.pres").read_text(encoding="utf-8")
            points = list(alexander_polynomial(parse_presentation_text(text).presentation).terms)
            assert (len(points), len(hull_vertices(points))) == (58, 16)
        else:
            points = list(product(range(5), repeat=3))
        hull = hull_vertices(points)
        assert hull_certificate_3d(points, hull)
        # The certificate refuses a hull with a vertex dropped or a non-vertex added.
        for k in range(len(hull)):
            assert not hull_certificate_3d(points, hull[:k] + hull[k + 1:])
        for extra in sorted(set(points) - set(hull)):
            assert not hull_certificate_3d(points, hull + [extra])

    def test_planar_rows_against_the_full_chain(self):
        for pts in planar_row_corpus():
            assert hull_vertices(pts) == monotone_chain(pts)

    def test_planar_rows_against_the_oracle(self):
        for pts in planar_row_corpus(seed=24, count=40, per_row=3):
            hull = hull_vertices(pts)
            assert sorted(hull) == extreme_points_oracle(sorted(set(pts)))
            assert hull[0] == min(pts)
            if len(hull) >= 3:  # strictly counterclockwise at every corner
                for k in range(len(hull)):
                    o, a, b = hull[k - 2], hull[k - 1], hull[k]
                    assert (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0

    def test_collinear(self):
        assert hull_vertices([(0, 0), (1, 1), (2, 2), (3, 3)]) == [(0, 0), (3, 3)]

    def test_point_in_hull_simplex(self):
        square = [(0, 0), (2, 0), (0, 2), (2, 2)]
        assert point_in_hull((1, 1), square)
        assert not point_in_hull((3, 1), square)

    def test_point_in_hull_fraction_targets(self):
        simplex = [(0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6)]
        eps = Fraction(1, 10**12)
        assert point_in_hull((2, 2, 2), simplex)  # on the face x + y + z = 6
        assert point_in_hull((Fraction(2), Fraction(2), 2 - eps), simplex)
        assert point_in_hull((eps, eps, Fraction(17, 3)), simplex)
        assert not point_in_hull((Fraction(2), Fraction(2), 2 + eps), simplex)
        assert not point_in_hull((-eps, Fraction(1, 3), Fraction(1, 3)), simplex)


class TestLinearProgram:
    """Every outcome of the LP carries a witness, checked here independently."""

    def test_witnesses_on_random_systems(self):
        outcomes = set()
        for rows in random_equality_systems():
            n = len(rows[0]) - 1
            feasible, vector, d = _lp_feasible(rows)
            outcomes.add(feasible)
            if feasible:
                assert d > 0 and len(vector) == n and min(vector) >= 0
                for row in rows:
                    assert sum(a * x for a, x in zip(row, vector)) == d * row[n]
            else:
                assert len(vector) == len(rows)
                assert sum(y * row[n] for y, row in zip(vector, rows)) > 0
                for j in range(n):
                    assert sum(y * row[j] for y, row in zip(vector, rows)) <= 0
        assert outcomes == {True, False}

    @pytest.mark.parametrize("rows, witness", [
        ([[1, 1, 1], [1, -1, 0]], (True, [1, 0], 1)),  # A x != d b
        ([[1, 1, 0]], (True, [1, -1], 1)),  # A x = b, but x has a negative entry
        ([[1, 1, -1]], (True, [1, 0], -1)),  # A x = d b with x >= 0, but d < 0
        ([[1, 1, 1], [1, -1, 0]], (False, [1, 0], 1)),  # y A has a positive entry
        ([[1, 1, 0]], (False, [-1], 1)),  # y A <= 0, but y b = 0
    ])
    def test_bad_witness_is_refused(self, monkeypatch, rows, witness):
        monkeypatch.setattr(polytope, "_simplex", lambda rows: witness)
        with pytest.raises(ArithmeticError, match="does not solve" if witness[0] else "not a Farkas"):
            _lp_feasible(rows)


class TestAlexanderNorm:
    @pytest.mark.parametrize(
        "phi, expected",
        [((1, 0), 2), ((0, 1), 1), ((1, -1), 1)],
    )
    def test_golden_values(self, delta_golden, phi, expected):
        assert alexander_norm(delta_golden, phi) == expected

    def test_seminorm_properties(self, delta_golden):
        rng = random.Random(5)
        for _ in range(80):
            phi = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            psi = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            n_phi = alexander_norm(delta_golden, phi)
            assert n_phi >= 0
            assert alexander_norm(delta_golden, tuple(-x for x in phi)) == n_phi
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            assert alexander_norm(delta_golden, tuple(c * x for x in phi)) == c * n_phi
            both = tuple(x + y for x, y in zip(phi, psi))
            assert alexander_norm(delta_golden, both) <= n_phi + alexander_norm(
                delta_golden, psi
            )

    def test_matches_doubled_center_form(self, delta_golden):
        # For a balanced polytope the norm is 2 * max over hull vertices
        # of phi(x - z0).
        poly = newton_polytope(delta_golden)
        z0 = balance_center(poly)
        rng = random.Random(6)
        for _ in range(50):
            phi = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            direct = alexander_norm(delta_golden, phi)
            via_center = 2 * max(
                sum(phi[i] * (v[i] - z0[i]) for i in range(2)) for v in poly.hull
            )
            assert direct == via_center

    def test_integer_scaling_matches_the_fraction_sum(self):
        rng = random.Random(8)
        for k in range(180):
            nvars = 1 + k % 3
            p = LaurentPoly(nvars, {tuple(rng.randint(-7, 7) for _ in range(nvars)):
                                    rng.choice((-3, -1, 1, 2)) for _ in range(rng.randint(1, 9))})
            if k % 4 == 0:  # int classes only
                phi = tuple(rng.randint(-5, 5) for _ in range(nvars))
            else:  # mixed denominators and signs, ints among them
                phi = tuple(rng.choice((rng.randint(-5, 5),
                                        Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
                            for _ in range(nvars))
            values = [sum(Fraction(phi[i]) * e[i] for i in range(nvars)) for e in p.terms]
            norm = alexander_norm(p, phi)
            assert type(norm) is Fraction
            assert norm == max(values) - min(values)

    def test_errors(self, delta_golden):
        with pytest.raises(ValueError):
            alexander_norm(LaurentPoly.zero(2), (1, 0))
        with pytest.raises(ValueError):
            alexander_norm(delta_golden, (1, 0, 0))


class TestBalanceCenter:
    def test_golden(self, delta_golden):
        poly = newton_polytope(delta_golden)
        z0 = balance_center(poly)
        assert z0 == (Fraction(1), Fraction(1, 2))
        # The antipodal map swaps (0,0) <-> (2,1) and (1,0) <-> (1,1).
        image = {tuple(2 * z0[i] - v[i] for i in range(2)) for v in poly.hull}
        assert image == set(poly.hull)

    def test_single_point(self):
        poly = lattice_polytope([(0, 0)], [3])
        assert balance_center(poly) == (Fraction(0), Fraction(0))

    def test_unbalanced_triangle(self):
        poly = lattice_polytope([(0, 0), (1, 0), (0, 1)], [1, 1, 1])
        assert balance_center(poly) is None


class TestDualBall:
    def test_golden_quadrilateral(self, delta_golden):
        ball = dual_ball(newton_polytope(delta_golden))
        assert ball.vertices is not None
        assert set(ball.vertices) == {
            (Fraction(0), Fraction(-1)),
            (Fraction(1), Fraction(-1)),
            (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(1)),
        }
        # One face per hull vertex; in rank 2 the vertex count of the
        # dual equals the edge count (= vertex count) of the polygon.
        assert len(ball.faces) == 4 == len(ball.vertices)
        assert [f.vertex for f in ball.faces] == [(0, 0), (1, 0), (2, 1), (1, 1)]

    def test_face_supporting_conditions(self, delta_golden):
        poly = newton_polytope(delta_golden)
        ball = dual_ball(poly)
        half = Fraction(1, 2)
        for face in ball.faces:
            assert face.endpoints is not None
            for phi in face.endpoints:
                assert sum(phi[i] * face.normal[i] for i in range(2)) == half
                for v in poly.hull:
                    z0 = ball.center
                    assert sum(phi[i] * (v[i] - z0[i]) for i in range(2)) <= half

    def test_segment(self):
        poly = lattice_polytope([(-1,), (1,)], [1, 1])
        ball = dual_ball(poly)
        assert ball.vertices == ((Fraction(-1, 2),), (Fraction(1, 2),))

    def test_square_self_dual(self):
        poly = lattice_polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)], [1, 1, 1, 1])
        ball = dual_ball(poly)
        assert set(ball.vertices) == {
            (Fraction(1, 2), Fraction(0)),
            (Fraction(-1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(0), Fraction(-1, 2)),
        }

    def test_one_point_hull_has_no_faces(self):
        # A unit Delta: the norm is identically 0, so the dual ball is the
        # whole space and no face (with its zero normal) may be reported.
        for point in ((0, 0), (2, -1), (0, 0, 0)):
            ball = dual_ball(lattice_polytope([point], [1]))
            assert ball.center == point
            assert ball.faces == ()
            assert ball.vertices is None

    def test_dual_vertex_outside_the_ball_raises(self, delta_golden, monkeypatch):
        poly = newton_polytope(delta_golden)
        monkeypatch.setattr(polytope, "_solve2", lambda a, b, rhs: (Fraction(5), Fraction(5)))
        with pytest.raises(ArithmeticError, match=r"dual_ball: dual vertex \(5, 5\)"):
            dual_ball(poly)

    def test_unbalanced_raises(self):
        poly = lattice_polytope([(0, 0), (1, 0), (0, 1)], [1, 1, 1])
        with pytest.raises(ValueError, match="not balanced"):
            dual_ball(poly)

    def test_double_dual_directions(self, delta_golden):
        # Scaling the dual polygon to lattice points and dualizing again
        # must reproduce the original hull vertex directions about the
        # center.
        poly = newton_polytope(delta_golden)
        ball = dual_ball(poly)
        denom = 1
        for v in ball.vertices:
            for x in v:
                denom = denom * x.denominator // __import__("math").gcd(denom, x.denominator)
        lattice = [tuple(int(x * denom) for x in v) for v in ball.vertices]
        second = dual_ball(lattice_polytope(lattice, [1] * len(lattice)))
        z0 = balance_center(poly)

        def primitive_dir(vec):
            from math import gcd

            g = 0
            for x in vec:
                g = gcd(g, abs(int(x)))
            return tuple(int(x) // g for x in vec)

        original = {
            primitive_dir(tuple((v[i] - z0[i]) * 2 for i in range(2)))
            for v in poly.hull
        }
        recovered = {
            primitive_dir(tuple(x * 2 * denom for x in v)) for v in second.vertices
        }
        assert original == recovered
