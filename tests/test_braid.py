import random

import pytest

from normforge import InvariantError, braid
from normforge.braid import (
    BraidWord,
    braid_action,
    braid_alphabet,
    burau,
    gamma,
    is_n_cycle,
    mapping_torus_delta,
    mapping_torus_delta_fox,
    mapping_torus_presentation,
    parse_braid,
    permutation,
)
from normforge.laurent import (
    LaurentPoly,
    equal_up_to_unit,
    normalize_unit,
    poly_to_text,
)
from normforge.polytope import newton_polytope
from normforge.words import Word, free_abelianization, make_alphabet, presentation

T = LaurentPoly.variable(1, 0)


def random_braid(rng, n=None, max_len=12):
    n = n or rng.randint(2, 5)
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice([1, -1]))
        for _ in range(rng.randrange(max_len + 1))
    )
    return BraidWord(n, letters)


def dense_product(a, b):
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(len(b))), LaurentPoly.zero(1))
              for c in range(len(b[0])))
        for r in range(len(a))
    )


def generator_matrix(n, i, sign):
    """The dense image of sigma_{i+1}^sign: it differs from I in column i only,
    with t above, -t on and 1 below the diagonal (1, -t^-1 and t^-1 for the
    inverse)."""
    one, zero, tinv = LaurentPoly.one(1), LaurentPoly.zero(1), LaurentPoly.monomial(1, (-1,))
    column = (T, -T, one) if sign > 0 else (one, -tinv, tinv)
    dense = [[one if r == c else zero for c in range(n - 1)] for r in range(n - 1)]
    for r, value in zip((i - 1, i, i + 1), column):
        if 0 <= r < n - 1:
            dense[r][i] = value
    return tuple(tuple(row) for row in dense)


class TestBraidWords:
    def test_parse(self):
        b = parse_braid("n=5: 1 2 -3 4")
        assert b.strands == 5
        assert b.letters == ((1, 1), (2, 1), (3, -1), (4, 1))

    def test_parse_with_comments(self):
        b = parse_braid("# gamma\nn=2: 1\n")
        assert b == BraidWord(2, ((1, 1),))

    def test_str_roundtrip(self):
        rng = random.Random(0)
        for _ in range(30):
            b = random_braid(rng)
            assert parse_braid(str(b)) == b

    @pytest.mark.parametrize(
        "text", ["", "5: 1", "n=x: 1", "n=3: 0", "n=3: two"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_braid(text)

    def test_index_range(self):
        with pytest.raises(ValueError, match="generator index 3 out of range for 3 strands"):
            BraidWord(3, ((3, 1),))
        with pytest.raises(ValueError, match="generator index 0 out of range"):
            BraidWord(letters=((0, 1),), strands=3)
        with pytest.raises(ValueError, match="at least 2 strands"):
            BraidWord(1, ())
        with pytest.raises(ValueError, match="signs must be ±1"):
            BraidWord(3, ((1, 2),))

    def test_product_with_a_non_braid_is_a_type_error(self):
        b = BraidWord(3, ((1, 1),))
        with pytest.raises(TypeError):
            b * 2
        with pytest.raises(TypeError):
            2 * b

    def test_strand_limit(self):
        n = braid.MAX_STRANDS
        assert BraidWord(n, ((n - 1, 1),)).strands == n
        with pytest.raises(ValueError, match=f"more than {n} strands \\({n + 1}\\)"):
            BraidWord(n + 1, ())
        with pytest.raises(ValueError, match=f"more than {n} strands"):
            BraidWord(strands=n + 1, letters=())
        with pytest.raises(ValueError, match=f"line 2: more than {n} strands"):
            parse_braid("# huge\nn=100000: 1\n")


class TestGammaAndPermutations:
    def test_gamma_shape(self):
        assert gamma(5).letters == ((1, 1), (2, 1), (3, 1), (4, 1))
        assert gamma(2).letters == ((1, 1),)
        with pytest.raises(ValueError):
            gamma(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gamma_is_n_cycle(self, n):
        assert is_n_cycle(gamma(n))

    def test_sigma1_squared_not_cycle(self):
        assert not is_n_cycle(BraidWord(3, ((1, 1), (1, 1))))

    def test_empty_braid_identity(self):
        assert permutation(BraidWord(4, ())) == (0, 1, 2, 3)

    def test_transposition_images(self):
        assert permutation(BraidWord(3, ((1, 1),))) == (1, 0, 2)
        assert permutation(BraidWord(3, ((2, -1),))) == (0, 2, 1)


class TestBurau:
    def test_two_strand_generator(self):
        m = burau(BraidWord(2, ((1, 1),)))
        assert m.entries == ((-T,),)

    def test_identity(self):
        m = burau(BraidWord(4, ()))
        one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
        assert m.entries == tuple(
            tuple(one if i == j else zero for j in range(3)) for i in range(3)
        )

    def test_braid_relation_b3(self):
        lhs = burau(BraidWord(3, ((1, 1), (2, 1), (1, 1))))
        rhs = burau(BraidWord(3, ((2, 1), (1, 1), (2, 1))))
        assert lhs.entries == rhs.entries

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_relations_exhaustive(self, n):
        for i in range(1, n):
            gen = BraidWord(n, ((i, 1),))
            inv = BraidWord(n, ((i, -1),))
            assert burau(gen * inv).entries == burau(BraidWord(n, ())).entries
            for j in range(1, n):
                if abs(i - j) >= 2:
                    ab = burau(BraidWord(n, ((i, 1), (j, 1))))
                    ba = burau(BraidWord(n, ((j, 1), (i, 1))))
                    assert ab.entries == ba.entries
            if i + 1 < n:
                aba = burau(BraidWord(n, ((i, 1), (i + 1, 1), (i, 1))))
                bab = burau(BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1))))
                assert aba.entries == bab.entries

    def test_generator_matrices(self):
        for n in range(2, 6):
            for i in range(n - 1):
                for sign in (1, -1):
                    assert burau(BraidWord(n, ((i + 1, sign),))).entries == generator_matrix(n, i, sign)

    def test_homomorphism(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(2, 5)
            u = random_braid(rng, n=n, max_len=6)
            v = random_braid(rng, n=n, max_len=6)
            prod = burau(u * v)
            assert prod.entries == dense_product(burau(u).entries, burau(v).entries)

    def test_matches_the_dense_product_of_generator_matrices(self):
        rng = random.Random(3)
        for _ in range(40):
            b = random_braid(rng, n=rng.randint(2, 14), max_len=40)
            expected = burau(BraidWord(b.strands, ())).entries
            for idx, sign in b.letters:
                expected = dense_product(expected, generator_matrix(b.strands, idx - 1, sign))
            assert burau(b).entries == expected, str(b)

    def test_gamma_at_the_strand_limit(self):
        # Closed form, as in the gamma_4 golden case: row 0 is -t, -t^2, ...,
        # -t^(n-1), and row r > 0 has a 1 in column r - 1.
        n = braid.MAX_STRANDS
        one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
        expected = (tuple(-LaurentPoly.monomial(1, (k,)) for k in range(1, n)),) + tuple(
            tuple(one if c == r - 1 else zero for c in range(n - 1)) for r in range(1, n - 1)
        )
        assert burau(gamma(n)).entries == expected

    def test_long_word_that_cancels_to_the_identity(self):
        # (sigma_1 sigma_1^-1)^20000: the exponents stay within +-1 throughout,
        # and no bound on the coefficients is needed before the product starts.
        m = burau(BraidWord(3, ((1, 1), (1, -1)) * 20000))
        assert m.entries == burau(BraidWord(3, ())).entries

    def test_determinant_is_unit(self):
        rng = random.Random(2)
        for _ in range(60):
            b = random_braid(rng, max_len=20)
            m = burau(b)
            assert m.det().is_unit()


class TestBraidAction:
    def test_generator_images(self):
        alphabet = braid_alphabet(3)
        x1 = Word(alphabet, [(0, 1)])
        x2 = Word(alphabet, [(1, 1)])
        b = BraidWord(3, ((1, 1),))
        assert braid_action(b, x1) == Word(alphabet, [(0, 1), (1, 1), (0, -1)])
        assert braid_action(b, x2) == x1

    def test_automorphism_inverse(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 5)
            b = random_braid(rng, n=n, max_len=8)
            alphabet = braid_alphabet(n)
            for i in range(n):
                xi = Word(alphabet, [(i, 1)])
                assert braid_action(b.inverse(), braid_action(b, xi)) == xi

    def test_composition_order(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 4)
            u = random_braid(rng, n=n, max_len=5)
            v = random_braid(rng, n=n, max_len=5)
            alphabet = braid_alphabet(n)
            for i in range(n):
                xi = Word(alphabet, [(i, 1)])
                assert braid_action(u * v, xi) == braid_action(u, braid_action(v, xi))

    @staticmethod
    def reference_action(b, w):
        # The substitution rules letter by letter, from the last braid letter
        # to the first: sigma_i sends x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i;
        # sigma_i^-1 sends x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}.
        for idx, sign in reversed(b.letters):
            i, j = idx - 1, idx
            if sign > 0:
                images = {i: [(i, 1), (j, 1), (i, -1)], j: [(i, 1)]}
            else:
                images = {i: [(j, 1)], j: [(j, -1), (i, 1), (j, 1)]}
            out = []
            for k, e in w.letters:
                image = images.get(k, [(k, 1)])
                out.extend(image if e > 0 else [(g, -f) for g, f in reversed(image)])
            w = Word(w.alphabet, out)
        return w

    def test_matches_letter_by_letter_reference(self):
        # Random braids (both signs, up to 3n letters) on random words that
        # contain s, and every relator of the mapping-torus presentation.
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(2, 8)
            b = random_braid(rng, n=n, max_len=3 * n)
            alphabet = braid_alphabet(n)
            letters = [(rng.randrange(n + 1), rng.choice((1, -1))) for _ in range(rng.randrange(10))]
            letters.insert(rng.randint(0, len(letters)), (n, rng.choice((1, -1))))
            w = Word(alphabet, letters)
            assert braid_action(b, w) == self.reference_action(b, w)
            s = Word(alphabet, [(n, 1)])
            relators = mapping_torus_presentation(b).relators
            assert len(relators) == n
            for i, relator in enumerate(relators):
                xi = Word(alphabet, [(i, 1)])
                assert relator == s * xi * s.inverse() * self.reference_action(b, xi).inverse()

    def test_alphabet_shorter_than_the_braid_is_refused(self):
        # Refused whichever letters the braid touches.
        ab = make_alphabet("a b")
        for letters in (((1, 1),), ((2, 1),)):
            for w in (Word(ab, [(0, 1)]), Word(ab, [(1, -1)])):
                with pytest.raises(ValueError, match="at least 3 generators, not 2"):
                    braid_action(BraidWord(3, letters), w)


class TestMappingTorus:
    def test_identity_braid_presentation(self):
        pres = mapping_torus_presentation(BraidWord(2, ()))
        assert [g.name for g in pres.alphabet] == ["x1", "x2", "s"]
        assert len(pres.relators) == 2
        # Both relators are commutators [s, x_i], so b_1 = 3.
        assert free_abelianization(pres).rank == 3

    def test_gamma2_presentation(self):
        pres = mapping_torus_presentation(gamma(2))
        m = free_abelianization(pres)
        assert m.rank == 2
        assert m.torsion == ()

    def test_delta_two_strands(self):
        result = mapping_torus_delta(gamma(2))
        names = ("t", "w")
        assert result.n_cycle
        assert result.substitution == "direct"
        assert poly_to_text(normalize_unit(result.poly), names) == "t + w"

    def test_delta_gamma3(self):
        result = mapping_torus_delta(gamma(3))
        assert poly_to_text(normalize_unit(result.poly), ("t", "w")) == "t^2 + t*w + w^2"

    def test_substitution_toggle(self):
        direct = mapping_torus_delta(gamma(2), "direct").poly
        inverse = mapping_torus_delta(gamma(2), "inverse").poly
        t_inv = LaurentPoly.monomial(2, (-1, 0))
        w = LaurentPoly.variable(2, 1)
        assert direct == LaurentPoly.variable(2, 0) + w
        assert inverse == t_inv + w
        with pytest.raises(ValueError):
            mapping_torus_delta(gamma(2), "sideways")

    def test_non_ncycle_flagged(self):
        result = mapping_torus_delta(BraidWord(3, ((1, 1), (1, 1))))
        assert not result.n_cycle
        with pytest.raises(ValueError, match="n-cycle"):
            mapping_torus_delta_fox(BraidWord(3, ((1, 1), (1, 1))))

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        found = 0
        while found < 15:
            n = rng.randint(2, 4)
            b = random_braid(rng, n=n, max_len=6)
            if not is_n_cycle(b):
                continue
            found += 1
            g = random_braid(rng, n=n, max_len=4)
            conj = g * b * g.inverse()
            d1 = mapping_torus_delta(b).poly
            d2 = mapping_torus_delta(conj).poly
            assert equal_up_to_unit(d1, d2)

    def test_fox_cross_oracle_sample(self):
        # The exhaustive enumeration lives in the acceptance suite; here
        # a quick randomized sample over n in {2, 3, 4}.
        rng = random.Random(6)
        found = 0
        while found < 25:
            n = rng.randint(2, 4)
            b = random_braid(rng, n=n, max_len=8)
            if not is_n_cycle(b):
                continue
            found += 1
            fox = mapping_torus_delta_fox(b)
            det = mapping_torus_delta(b, "direct").poly
            assert equal_up_to_unit(fox, det)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gamma_newton_polytope_is_segment(self, n):
        # Observable: det(wI - Burau(gamma)) has collinear support, so
        # the Alexander norm of the gamma mapping torus is degenerate
        # along one direction.
        poly = newton_polytope(mapping_torus_delta(gamma(n)).poly)
        assert len(poly.hull) == 2
        import math

        (x0, y0), (x1, y1) = poly.hull
        direction = (x1 - x0, y1 - y0)
        g = math.gcd(abs(direction[0]), abs(direction[1]))
        assert {(direction[0] // g, direction[1] // g)} <= {(1, -1), (-1, 1)}
        # Degenerate direction of the norm: phi = (1, 1) pairs equally
        # with the whole support.
        from normforge.polytope import alexander_norm

        assert alexander_norm(mapping_torus_delta(gamma(n)).poly, (1, 1)) == 0


class TestFoxRouteInvariants:
    """The Fox route's two H_1 checks, forced by a doctored mapping-torus presentation."""

    @pytest.mark.parametrize("relators, stage, witness", [
        (["a b a^-1 b^-1"], "mapping-torus homology", "rank 3 and torsion ()"),
        # c = b^2: H_1 = Z^2, but x_1 = a and s = c span a sublattice of index 2.
        (["c b^-2"], "mapping-torus basis", "classes (0, 1), (2, 0) have determinant -2"),
    ])
    def test_doctored_homology_is_refused(self, monkeypatch, relators, stage, witness):
        pres = presentation("a b c", relators)
        b = parse_braid("n=3: 1 2")
        assert is_n_cycle(b)
        monkeypatch.setattr(braid, "mapping_torus_presentation", lambda _: pres)
        with pytest.raises(InvariantError) as caught:
            mapping_torus_delta_fox(b)
        assert (caught.value.stage, caught.value.witness) == (stage, witness)
