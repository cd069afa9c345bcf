import functools
import random

import pytest

from normforge import InvariantError, bns
from normforge.bns import (
    Arc,
    OpenCone,
    cone_arc,
    cone_contains,
    compare_sigma,
    primitive,
    rank2_arcs,
    sigma_alexander,
    sigma_principal,
)
from normforge.laurent import LaurentPoly, invert_variables
from normforge.polytope import dual_ball, newton_polytope
from normforge.words import presentation

A = LaurentPoly.variable(2, 0)
B = LaurentPoly.variable(2, 1)


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def in_open_arc(d, arc):
    """Oracle: d lies strictly counterclockwise of ``arc.start`` and clockwise of ``arc.end``."""
    return arc.full_circle or (cross(arc.start, d) > 0 and cross(d, arc.end) > 0)


def random_nonzero_poly(rng, nvars=2, max_terms=5, span=3):
    while True:
        terms = {
            tuple(rng.randint(-span, span) for _ in range(nvars)): rng.randint(-4, 4)
            for _ in range(rng.randint(1, max_terms))
        }
        p = LaurentPoly(nvars, terms)
        if not p.is_zero():
            return p


class TestPrimitives:
    def test_primitive(self):
        assert primitive((4, -6)) == (2, -3)
        assert primitive((0, -5)) == (0, -1)
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_sphere_class(self):
        assert primitive((2, 2)) == (1, 1)


class TestSigmaPrincipal:
    def test_golden_components(self, delta_golden):
        sigma = sigma_principal(delta_golden)
        assert [c.label for c in sigma.components] == [(0, 0), (1, 0), (2, 1), (1, 1)]
        assert sigma.excluded_vertices == ()

    def test_constraint_sets(self, delta_golden):
        sigma = sigma_principal(delta_golden)
        cone = next(c for c in sigma.components if c.label == (2, 1))
        assert set(cone.constraints) == {(2, 1), (1, 1), (1, 0)}

    def test_excluded_vertex(self):
        a1 = LaurentPoly.variable(1, 0)
        sigma = sigma_principal(2 * a1 + 1)
        assert [c.label for c in sigma.components] == [(0,)]
        assert sigma.excluded_vertices == ((1,),)

    def test_constant_full_sphere(self):
        sigma = sigma_principal(LaurentPoly.one(2))
        assert len(sigma.components) == 1
        assert sigma.components[0].constraints == ()

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            sigma_principal(LaurentPoly.zero(2))

    def test_monomial_translation_invariance(self):
        rng = random.Random(0)
        for _ in range(60):
            p = random_nonzero_poly(rng)
            shift = LaurentPoly.monomial(
                2, (rng.randint(-4, 4), rng.randint(-4, 4))
            )
            s1, s2 = sigma_principal(p), sigma_principal(p * shift)
            assert [c.constraints for c in s1.components] == [
                c.constraints for c in s2.components
            ]

    def test_negation_invariance(self):
        rng = random.Random(1)
        for _ in range(60):
            p = random_nonzero_poly(rng)
            assert sigma_principal(p) == sigma_principal(-p)

    def test_inversion_antipodal(self):
        rng = random.Random(2)
        for _ in range(60):
            p = random_nonzero_poly(rng)
            s, si = sigma_principal(p), sigma_principal(invert_variables(p))

            def as_map(desc, negate):
                out = {}
                for c in desc.components:
                    label = tuple(-x for x in c.label) if negate else c.label
                    cons = frozenset(
                        tuple(-x for x in d) for d in c.constraints
                    ) if negate else frozenset(c.constraints)
                    out[label] = cons
                return out

            assert as_map(si, True) == as_map(s, False)


class TestSigmaAlexander:
    def test_section6(self, section6, delta_golden):
        sigma = sigma_alexander(section6.presentation)
        assert sigma == sigma_principal(delta_golden)
        assert len(sigma.components) == 4

    def test_unit_delta_full_sphere(self):
        sigma = sigma_alexander(presentation("a b", ["a b a^-1 b^-1"]))
        assert len(sigma.components) == 1
        assert sigma.components[0].constraints == ()

    def test_degenerate_flagged(self):
        with pytest.raises(ValueError, match="degenerate"):
            sigma_alexander(presentation("a b", []))

    def test_rank_zero_flagged(self):
        with pytest.raises(ValueError, match="b_1 = 0"):
            sigma_alexander(presentation("x", ["x^2"]))


class TestConeContains:
    def test_membership_dot_products(self, delta_golden):
        sigma = sigma_principal(delta_golden)
        cone = next(c for c in sigma.components if c.label == (2, 1))
        # (1,0) . d > 0 for d in {(2,1), (1,1), (1,0)}.
        assert cone_contains(cone, (1, 0))
        assert cone_contains(cone, (2, 1))

    def test_boundary_is_excluded(self, delta_golden):
        sigma = sigma_principal(delta_golden)
        cone = next(c for c in sigma.components if c.label == (2, 1))
        assert not cone_contains(cone, (1, -1))
        assert not cone_contains(cone, (0, 1))

    def test_empty_constraints_contain_everything(self):
        cone = OpenCone((0, 0), ())
        assert cone_contains(cone, (3, -7))

    def test_rank_mismatch(self):
        cone = OpenCone((0, 0), ((1, 0),))
        with pytest.raises(ValueError, match="rank mismatch"):
            cone_contains(cone, (1, 0, 0))


class TestArcs:
    def test_golden_arcs(self, delta_golden):
        sigma = sigma_principal(delta_golden)
        arcs = rank2_arcs(sigma)
        by_label = dict(zip((c.label for c in sigma.components), arcs.arcs))
        assert by_label[(0, 0)] == Arc((-1, 1), (0, -1))
        assert by_label[(1, 0)] == Arc((0, -1), (1, -1))
        assert by_label[(2, 1)] == Arc((1, -1), (0, 1))
        assert by_label[(1, 1)] == Arc((0, 1), (-1, 1))

    def test_golden_complement(self, delta_golden):
        arcs = rank2_arcs(sigma_principal(delta_golden))
        assert arcs.complement_finite
        assert set(arcs.complement_points) == {(0, 1), (0, -1), (1, -1), (-1, 1)}

    def test_full_circle(self):
        arcs = rank2_arcs(sigma_principal(LaurentPoly.one(2)))
        assert arcs.arcs[0].full_circle
        assert arcs.complement_finite
        assert arcs.complement_points == ()

    def test_rank_guard(self):
        a1 = LaurentPoly.variable(1, 0)
        sigma = sigma_principal(a1 + 1)
        with pytest.raises(ValueError, match="rank 2"):
            rank2_arcs(sigma)

    def test_infinite_complement(self):
        # 2ab + a: only one hull vertex has coefficient ±1, so a single
        # halfplane arc; the complement is a closed half circle.
        sigma = sigma_principal(2 * A * B + A)
        arcs = rank2_arcs(sigma)
        assert not arcs.complement_finite

    def test_empty_cone_flagged(self):
        # Constraints pointing in opposite directions cut an empty cone.
        cone = OpenCone((0, 0), ((1, 0), (-1, 0)))
        assert cone_arc(cone) is None

    def test_halfplane_arc(self):
        cone = OpenCone((0, 0), ((0, 1),))
        arc = cone_arc(cone)
        assert arc == Arc((1, 0), (-1, 0))
        assert in_open_arc((0, 1), arc)
        assert not in_open_arc((0, -1), arc)
        assert not in_open_arc((1, 0), arc)

    def test_random_cones_against_a_direction_grid(self):
        # Arc ends are turns of constraints with entries in -6..6, so a
        # nonempty cone has its bisector (or normal) inside [-12, 12]^2.
        grid = [d for d in ((x, y) for x in range(-13, 14) for y in range(-13, 14))
                if d != (0, 0) and primitive(d) == d]
        rng = random.Random(11)
        empty = 0
        for _ in range(300):
            size, constraints = rng.randint(1, 4), set()
            while len(constraints) < size:
                d = (rng.randint(-6, 6), rng.randint(-6, 6))
                if d != (0, 0):
                    constraints.add(primitive(d))
            cone = OpenCone((0, 0), tuple(sorted(constraints)))
            arc = cone_arc(cone)
            if arc is None:
                empty += 1
                assert not any(cone_contains(cone, d) for d in grid)
                continue
            for end in (arc.start, arc.end):
                dots = [end[0] * c[0] + end[1] * c[1] for c in cone.constraints]
                assert min(dots) == 0
            assert cone_contains(cone, bns._arc_sample(arc))
            assert all(cone_contains(cone, d) == in_open_arc(d, arc) for d in grid)
        assert 0 < empty < 300

    def test_angular_sort_against_a_cross_product_comparator(self):
        # The oracle orders by half-plane ((1, 0) opens the upper one,
        # (-1, 0) the lower), then counterclockwise by the sign of the cross product.
        def half(d):
            return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

        def compare(u, v):
            if half(u) != half(v):
                return half(u) - half(v)
            return -cross(u, v)

        rng = random.Random(29)
        for _ in range(300):
            dirs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 12))]
            dirs = [primitive(d) for d in dirs if d != (0, 0)]
            dirs += rng.sample([(1, 0), (0, 1), (-1, 0), (0, -1)], rng.randint(0, 4))
            expected = sorted(set(dirs), key=functools.cmp_to_key(compare))
            assert bns._angular_sort(dirs) == expected
            assert bns._angular_sort(reversed(dirs)) == expected

    def test_components_pairwise_disjoint(self):
        rng = random.Random(3)
        polys = [random_nonzero_poly(rng) for _ in range(40)]
        for p in polys:
            sigma = sigma_principal(p)
            arcs = rank2_arcs(sigma)
            # Probe every candidate direction and every gap mediant: no
            # direction may lie in two distinct components.
            probes = set()
            for arc in arcs.arcs:
                if arc is None or arc.full_circle:
                    continue
                for d in (arc.start, arc.end):
                    probes.update(
                        {d, (-d[0], -d[1]), (-d[1], d[0]), (d[1], -d[0])}
                    )
            for d in probes:
                owners = [c for c in sigma.components if cone_contains(c, d)]
                assert len(owners) <= 1
            probe_list = sorted(probes)
            for i, u in enumerate(probe_list):
                for v in probe_list[i + 1:]:
                    mid = (u[0] + v[0], u[1] + v[1])
                    if mid == (0, 0):
                        continue
                    owners = [
                        c for c in sigma.components if cone_contains(c, mid)
                    ]
                    assert len(owners) <= 1


class TestFaceConeConsistency:
    def test_section6_face_directions_match_arcs(self, section6, delta_golden):
        # The cone over the interior of the dual-ball face of vertex v
        # projects to the component labeled v: their boundary directions
        # agree exactly.
        sigma = sigma_alexander(section6.presentation)
        arcs = rank2_arcs(sigma)
        ball = dual_ball(newton_polytope(delta_golden))
        faces = {f.vertex: f for f in ball.faces}
        for cone, arc in zip(sigma.components, arcs.arcs):
            face = faces[cone.label]
            face_dirs = {
                primitive(tuple(int(2 * x) for x in endpoint))
                for endpoint in face.endpoints
            }
            assert face_dirs == {arc.start, arc.end}


class TestCompareSigma:
    def test_self_comparison(self, delta_golden):
        sigma = sigma_principal(delta_golden)
        reports = compare_sigma(sigma, sigma)
        assert all(r.relation == "equal" for r in reports)
        assert all(r.certified for r in reports)

    def test_disjoint_cones(self):
        from normforge.bns import SigmaDescription

        inner = SigmaDescription(2, (OpenCone((1, 0), ((1, 0), (0, 1))),), ())
        outer = SigmaDescription(2, (OpenCone((0, 1), ((-1, 0), (0, -1))),), ())
        (report,) = compare_sigma(inner, outer)
        assert report.relation == "not_contained"
        assert report.witness is not None
        assert cone_contains(inner.components[0], report.witness)
        assert not cone_contains(outer.components[0], report.witness)

    def test_proper_containment_witness(self):
        from normforge.bns import SigmaDescription

        inner = SigmaDescription(2, (OpenCone((1, 0), ((1, 0), (0, 1))),), ())
        outer = SigmaDescription(2, (OpenCone((9, 9), ((0, 1),)),), ())
        (report,) = compare_sigma(inner, outer)
        assert report.relation == "properly_contained"
        assert cone_contains(outer.components[0], report.witness)
        assert not cone_contains(inner.components[0], report.witness)

    def test_rank_mismatch(self, delta_golden):
        from normforge.bns import SigmaDescription

        sigma = sigma_principal(delta_golden)
        with pytest.raises(ValueError):
            compare_sigma(sigma, SigmaDescription(3, (), ()))

    def test_other_ranks_are_refused(self):
        # The open octant is not inside {-x + 1000y > 0, x + y + z > 0}:
        # (1001, 1, 1) escapes, but no small grid direction does.  Rank 3
        # has no exact comparator, so it is refused.
        from normforge.bns import SigmaDescription

        inner = SigmaDescription(
            3, (OpenCone((1, 0, 0), ((0, 0, 1), (0, 1, 0), (1, 0, 0))),), ()
        )
        outer = SigmaDescription(3, (OpenCone((2, 0, 0), ((-1, 1000, 0), (1, 1, 1))),), ())
        assert cone_contains(inner.components[0], (1001, 1, 1))
        assert not cone_contains(outer.components[0], (1001, 1, 1))
        with pytest.raises(ValueError, match="rank 3"):
            compare_sigma(inner, outer)

    @pytest.mark.parametrize(
        "outer_cones, expected",
        [
            pytest.param((((-1, 1000), (1, 1)),), (1000, 1), id="thin_host"),
            pytest.param(
                (((-2, 5), (1, 1)), ((1, 1), (5, -13))), (5, 2), id="disjoint_hosts"
            ),
        ],
    )
    def test_partial_overlap_escapes_at_host_boundary(self, outer_cones, expected):
        # The open quadrant overlaps the host, and its endpoint (1, 0) lies
        # outside the closed host arc; the host's boundary ray on that side
        # is the witness.  Directions between it and (1, 0), such as (3, 1),
        # may lie in another outer cone.
        from normforge.bns import SigmaDescription

        inner = SigmaDescription(2, (OpenCone((1, 0), ((0, 1), (1, 0))),), ())
        outer = SigmaDescription(
            2, tuple(OpenCone((k, 0), cs) for k, cs in enumerate(outer_cones)), ()
        )
        (report,) = compare_sigma(inner, outer)
        assert report.relation == "not_contained" and report.certified
        assert report.witness == expected
        assert cone_contains(inner.components[0], report.witness)
        assert not any(cone_contains(c, report.witness) for c in outer.components)

    def test_random_descriptions_are_certified(self):
        rng = random.Random(3)
        for _ in range(300):
            inner = sigma_principal(random_nonzero_poly(rng))
            outer = sigma_principal(random_nonzero_poly(rng))
            for report, cone in zip(compare_sigma(inner, outer), inner.components):
                assert report.certified
                if report.relation == "not_contained":
                    assert cone_contains(cone, report.witness)
                    assert not any(cone_contains(c, report.witness) for c in outer.components)
                elif report.relation == "properly_contained":
                    host = next(c for c in outer.components if c.label == report.outer_label)
                    assert cone_contains(host, report.witness)
                    assert not cone_contains(cone, report.witness)


class TestInvariantFailures:
    """The two rank-2 checks no input reaches, forced by doctoring one helper."""

    P = A**2 * B - A * B - A + 1

    def test_antipodal_candidates_break_the_circle_complement(self, monkeypatch):
        # A sort that skips every candidate between (1, 0) and its antipode.
        monkeypatch.setattr(bns, "_angular_sort", lambda dirs: [(1, 0), (-1, 0)])
        with pytest.raises(InvariantError) as caught:
            rank2_arcs(sigma_principal(self.P))
        assert caught.value.stage == "circle complement"
        assert caught.value.witness == "consecutive candidates (1, 0) and (-1, 0) are antipodal"

    def test_host_without_an_arc_breaks_the_containment(self, monkeypatch):
        inner, outer = sigma_principal(self.P), sigma_principal(self.P)
        host = outer.components[0]
        sample = bns._arc_sample(cone_arc(inner.components[0]))
        assert cone_contains(host, sample)
        real = bns.cone_arc
        monkeypatch.setattr(bns, "cone_arc", lambda c: None if c is host else real(c))
        with pytest.raises(InvariantError) as caught:
            compare_sigma(inner, outer)
        assert caught.value.stage == "containment"
        assert caught.value.witness == f"the cone {host.label} contains {sample} but has no arc"
