import random

import pytest

from normforge.bns import (
    Arc,
    OpenCone,
    cone_arc,
    cone_contains,
    compare_sigma,
    direction_in_arc,
    interior_direction,
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
        assert interior_direction(cone) is None

    def test_halfplane_arc(self):
        cone = OpenCone((0, 0), ((0, 1),))
        arc = cone_arc(cone)
        assert arc == Arc((1, 0), (-1, 0))
        assert direction_in_arc((0, 1), arc)
        assert not direction_in_arc((0, -1), arc)
        assert not direction_in_arc((1, 0), arc)

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

    def test_rank3_sampled_verdicts_not_certified(self):
        from normforge.bns import SigmaDescription

        inner = SigmaDescription(
            3, (OpenCone((1, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),), ()
        )
        outer = SigmaDescription(3, (OpenCone((2, 0, 0), ((1, 0, 0),)),), ())
        (report,) = compare_sigma(inner, outer)
        assert report.relation == "properly_contained"
        assert not report.certified
