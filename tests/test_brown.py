import random

import pytest

from normforge import brown
from normforge.bns import compare_sigma, cone_contains, rank2_arcs, sigma_alexander
from normforge.brown import (
    UnsupportedPresentation,
    brown_sigma,
    simple_vertices,
    trace_relator,
)
from normforge.words import Presentation, Word, make_alphabet, parse_word, presentation

AB = make_alphabet("a b")


class TestTraceRelator:
    def test_commutator_square(self):
        path = trace_relator(parse_word("a b a^-1 b^-1", AB))
        assert path.points == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
        assert path.is_closed()

    def test_open_path(self):
        path = trace_relator(parse_word("a", AB))
        assert path.points == ((0, 0), (1, 0))
        assert not path.is_closed()

    def test_section6_closed_43_points(self, section6):
        # The relator has 42 letters, so the path has 43 points and is
        # closed because both exponent sums vanish.
        path = trace_relator(section6.presentation.relators[0])
        assert len(path.points) == 43
        assert path.steps == 42
        assert path.is_closed()

    def test_wrong_alphabet_size(self):
        abc = make_alphabet("a b c")
        with pytest.raises(UnsupportedPresentation):
            trace_relator(parse_word("a b c", abc))

    def test_prefix_abelianization(self):
        rng = random.Random(0)
        for _ in range(50):
            letters = [
                (rng.randrange(2), rng.choice([1, -1])) for _ in range(rng.randrange(10))
            ]
            w = Word(AB, letters)
            path = trace_relator(w)
            for i in range(len(path.points)):
                prefix = Word(AB, w.letters[:i])
                assert path.points[i] == prefix.exponent_vector()


class TestSimpleVertices:
    def test_commutator_all_simple(self):
        path = trace_relator(parse_word("a b a^-1 b^-1", AB))
        marked = simple_vertices(path)
        assert all(m == 1 for _, m in marked)
        assert {v for v, _ in marked} == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_revisited_corner_not_simple(self):
        # Traversing the commutator square twice doubles every multiplicity.
        w = parse_word("a b a^-1 b^-1 a b a^-1 b^-1", AB)
        marked = simple_vertices(trace_relator(w))
        assert all(m == 2 for _, m in marked)

    def test_section6_two_simple_vertices(self, section6):
        # Locked regression values: the hull is a hexagon and exactly the
        # vertices (3, 1) and (0, 1) are visited once.
        path = trace_relator(section6.presentation.relators[0])
        marked = simple_vertices(path)
        assert [(v, m) for v, m in marked] == [
            ((0, -1), 2),
            ((1, -1), 2),
            ((3, 1), 1),
            ((3, 3), 2),
            ((2, 3), 2),
            ((0, 1), 1),
        ]
        assert [v for v, m in marked if m == 1] == [(3, 1), (0, 1)]

    def test_open_path_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            simple_vertices(trace_relator(parse_word("a", AB)))

    def test_hull_translation_equivariance(self, section6):
        # Tracing a cyclic rotation of the relator translates the point
        # multiset; hulls agree after translating by the rotation offset.
        relator = section6.presentation.relators[0]
        rng = random.Random(1)
        base_hull = {v for v, _ in simple_vertices(trace_relator(relator))}
        for _ in range(6):
            k = rng.randrange(len(relator.letters))
            rotated = Word(AB, relator.letters[k:] + relator.letters[:k])
            offset = Word(AB, relator.letters[:k]).exponent_vector()
            rotated_hull = {
                v for v, _ in simple_vertices(trace_relator(rotated))
            }
            translated = {
                (v[0] + offset[0], v[1] + offset[1]) for v in rotated_hull
            }
            assert translated == base_hull


class TestBrownSigma:
    def test_section6_two_components(self, section6):
        sigma = brown_sigma(section6.presentation)
        assert len(sigma.components) == 2
        assert [c.label for c in sigma.components] == [(3, 1), (0, 1)]

    def test_section6_arcs(self, section6):
        sigma = brown_sigma(section6.presentation)
        arcs = rank2_arcs(sigma)
        assert arcs.arcs[0].start == (1, -1) and arcs.arcs[0].end == (1, 0)
        assert arcs.arcs[1].start == (-1, 1) and arcs.arcs[1].end == (-1, 0)

    def test_components_disjoint(self, section6):
        sigma = brown_sigma(section6.presentation)
        arcs = rank2_arcs(sigma)
        probes = set()
        for arc in arcs.arcs:
            probes.update({arc.start, arc.end})
        for u in probes:
            for v in probes:
                mid = (u[0] + v[0], u[1] + v[1])
                if mid == (0, 0):
                    continue
                assert sum(1 for c in sigma.components if cone_contains(c, mid)) <= 1

    def test_contained_in_sigma_alexander(self, section6):
        inner = brown_sigma(section6.presentation)
        outer = sigma_alexander(section6.presentation)
        reports = compare_sigma(inner, outer)
        assert [r.relation for r in reports] == ["properly_contained"] * 2
        for report in reports:
            host = next(c for c in outer.components if c.label == report.outer_label)
            cone = next(c for c in inner.components if c.label == report.inner_label)
            assert cone_contains(host, report.witness)
            assert not cone_contains(cone, report.witness)

    def test_commutator_regression(self):
        # All four square corners are simple, so the stated criterion
        # emits the four open quadrants (recorded as a regression value).
        sigma = brown_sigma(presentation("a b", ["a b a^-1 b^-1"]))
        assert [c.label for c in sigma.components] == [(0, 0), (1, 0), (1, 1), (0, 1)]
        arcs = rank2_arcs(sigma)
        assert arcs.complement_finite is False or arcs.complement_points

    def test_relator_cyclically_reduced_before_tracing(self):
        # b^-1 (a b a^-1 b^-1) b traces the same invariant as the
        # commutator itself.
        conj = presentation("a b", ["b^-1 a b a^-1 b^-1 b"])
        plain = presentation("a b", ["a b a^-1 b^-1"])
        assert {c.constraints for c in brown_sigma(conj).components} == {
            c.constraints for c in brown_sigma(plain).components
        }

    @pytest.mark.parametrize(
        "gens, rels, fragment",
        [
            ("a b c", ["a b a^-1 b^-1"], "2 generators"),
            ("a b", [], "2 generators and 1 relator"),
            ("a b", ["a b"], "commutator subgroup"),
            ("a b", ["a a^-1"], "trivial"),
        ],
    )
    def test_unsupported_shapes(self, gens, rels, fragment):
        with pytest.raises(UnsupportedPresentation, match=fragment):
            brown_sigma(presentation(gens, rels))

    @pytest.mark.parametrize("rel, closed", [("a b a^-1 b^-1", True), ("a b^2 a^-1 b^-1", False)])
    def test_walks_the_relator_once(self, rel, closed, monkeypatch):
        # The path's end point is the exponent vector, so the closed-path test
        # needs no second walk over the relator.
        walks = []
        monkeypatch.setattr(brown, "trace_relator", lambda r: walks.append(r) or trace_relator(r))
        monkeypatch.setattr(Word, "exponent_vector", lambda w: pytest.fail("second walk"))
        pres = presentation("a b", [rel])
        if closed:
            assert len(brown_sigma(pres).components) == 4
        else:
            with pytest.raises(UnsupportedPresentation, match="not in commutator subgroup"):
                brown_sigma(pres)
        assert walks == [pres.relators[0]]
