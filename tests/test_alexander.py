import random

import pytest

from normforge.alexander import (
    alexander_data,
    alexander_matrix,
    alexander_polynomial,
    check_e1_structure,
    check_fundamental_identity,
    check_symmetry,
    elementary_ideal,
    fox_derivative,
)
from normforge.laurent import (
    LaurentPoly,
    divide_exact,
    equal_up_to_unit,
)
from normforge.words import (
    Presentation,
    Word,
    free_abelianization,
    make_alphabet,
    parse_word,
    presentation,
)

AB = make_alphabet("a b")
A = LaurentPoly.variable(2, 0)
B = LaurentPoly.variable(2, 1)


@pytest.fixture(scope="module")
def free_ab2():
    return free_abelianization(presentation("a b", []))


def random_word(rng, alphabet, max_len=10):
    letters = [
        (rng.randrange(len(alphabet)), rng.choice([1, -1]))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return Word(alphabet, letters)


class TestFoxDerivative:
    def test_base_cases(self, free_ab2):
        ab_word = parse_word("a b", AB)
        assert fox_derivative(ab_word, "a", free_ab2) == LaurentPoly.one(2)
        assert fox_derivative(ab_word, "b", free_ab2) == A

    def test_inverse_rule(self, free_ab2):
        w = parse_word("a^-1", AB)
        assert fox_derivative(w, "a", free_ab2) == -LaurentPoly.monomial(2, (-1, 0))

    def test_product_rule(self, free_ab2):
        rng = random.Random(0)
        for _ in range(200):
            u, v = random_word(rng, AB), random_word(rng, AB)
            uv = u * v
            for gen in ("a", "b"):
                du = fox_derivative(u, gen, free_ab2)
                dv = fox_derivative(v, gen, free_ab2)
                u_bar = LaurentPoly.monomial(2, free_ab2.image(u))
                assert fox_derivative(uv, gen, free_ab2) == du + u_bar * dv

    def test_section6_factorization(self, section6, delta_golden):
        pres = section6.presentation
        m = free_abelianization(pres)
        r = pres.relators[0]
        da = fox_derivative(r, "a", m)
        db = fox_derivative(r, "b", m)
        qa = divide_exact(da, (B - 1) * delta_golden)
        qb = divide_exact(db, (A - 1) * delta_golden)
        assert qa is not None and qa.is_unit()
        assert qb is not None and qb.is_unit()

    def test_unknown_generator(self, free_ab2):
        with pytest.raises(ValueError, match="not in the alphabet"):
            fox_derivative(parse_word("a", AB), "z", free_ab2)


class TestAlexanderMatrix:
    def test_section6_shape(self, section6):
        mat = alexander_matrix(section6.presentation)
        assert mat.nrows == 1 and mat.ncols == 2

    def test_no_relators(self):
        mat = alexander_matrix(presentation("a b", []))
        assert mat.nrows == 0 and mat.ncols == 2

    def test_commutator_entries(self):
        mat = alexander_matrix(presentation("a b", ["a b a^-1 b^-1"]))
        assert mat.entries[0][0] == 1 - B
        assert mat.entries[0][1] == A - 1

    def test_fundamental_identity_random(self):
        rng = random.Random(1)
        alphabet = make_alphabet("a b c")
        for _ in range(40):
            rels = tuple(random_word(rng, alphabet) for _ in range(rng.randint(1, 3)))
            pres = Presentation(alphabet, rels)
            report = check_fundamental_identity(alexander_data(pres))
            assert report.status == "pass"


class TestElementaryIdeals:
    def test_one_by_two(self, section6):
        mat = alexander_matrix(section6.presentation)
        e1 = elementary_ideal(mat, 1)
        assert e1.minor_size == 1
        assert set(e1.generators) == {mat.entries[0][0], mat.entries[0][1]}

    def test_minors_bigger_than_matrix(self, section6):
        mat = alexander_matrix(section6.presentation)
        e0 = elementary_ideal(mat, 0)  # 2x2 minors of a 1-row matrix
        assert e0.generators == ()

    def test_augmentation_ideal_case(self):
        mat = alexander_matrix(presentation("a b", ["a b a^-1 b^-1"]))
        e1 = elementary_ideal(mat, 1)
        assert set(e1.generators) == {1 - B, A - 1}

    def test_trivial_ideal_convention(self, section6):
        mat = alexander_matrix(section6.presentation)
        e2 = elementary_ideal(mat, 2)  # 0x0 minor
        assert e2.generators == (LaurentPoly.one(2),)

    def test_negative_index(self, section6):
        with pytest.raises(ValueError):
            elementary_ideal(alexander_matrix(section6.presentation), -1)


class TestAlexanderPolynomial:
    def test_section6_golden(self, section6, delta_golden):
        delta = alexander_polynomial(section6.presentation)
        assert equal_up_to_unit(delta, delta_golden)
        # The normalized representative is the golden form on the nose.
        assert delta == delta_golden

    def test_commutator(self):
        assert alexander_polynomial(presentation("a b", ["a b a^-1 b^-1"])) == LaurentPoly.one(2)

    def test_free_rank_one(self):
        # One generator, no relators: E_1 = E_s = (1) by the Fitting
        # convention (the 0x0 minor is 1), so the polynomial is 1.
        data = alexander_data(presentation("a", []))
        assert not data.degenerate
        assert data.polynomial == LaurentPoly.one(1)

    def test_free_rank_two_degenerate(self):
        data = alexander_data(presentation("a b", []))
        assert data.degenerate
        assert data.polynomial.is_zero()

    def test_rank_zero_flag(self):
        data = alexander_data(presentation("x", ["x^2"]))
        assert data.rank_zero
        assert data.polynomial.nvars == 0

    def test_invariance_under_relator_inversion(self, section6, delta_golden):
        pres = section6.presentation
        inverted = Presentation(pres.alphabet, (pres.relators[0].inverse(),))
        assert equal_up_to_unit(alexander_polynomial(inverted), delta_golden)

    def test_invariance_under_cyclic_permutation(self, section6, delta_golden):
        pres = section6.presentation
        letters = pres.relators[0].letters
        rng = random.Random(2)
        for _ in range(5):
            k = rng.randrange(len(letters))
            rotated = Word(pres.alphabet, letters[k:] + letters[:k])
            pres_rot = Presentation(pres.alphabet, (rotated,))
            assert equal_up_to_unit(alexander_polynomial(pres_rot), delta_golden)

    def test_invariance_random_presentations(self):
        rng = random.Random(3)
        for _ in range(20):
            while True:
                w = random_word(rng, AB, max_len=8)
                if not w.is_identity():
                    break
            pres = Presentation(AB, (w,))
            base = alexander_polynomial(pres)
            inv = alexander_polynomial(Presentation(AB, (w.inverse(),)))
            k = rng.randrange(len(w.letters))
            rot = Word(AB, w.letters[k:] + w.letters[:k])
            rot_delta = alexander_polynomial(Presentation(AB, (rot,)))
            if base.is_zero():
                assert inv.is_zero() and rot_delta.is_zero()
            else:
                assert equal_up_to_unit(base, inv)
                assert equal_up_to_unit(base, rot_delta)


class TestSymmetry:
    def test_golden(self, section6, delta_golden):
        assert check_symmetry(delta_golden)
        assert alexander_polynomial(section6.presentation).augmentation() == 0

    def test_linear(self):
        a1 = LaurentPoly.variable(1, 0)
        assert check_symmetry(a1 + 1)

    def test_asymmetric(self):
        a1 = LaurentPoly.variable(1, 0)
        p = a1**2 + a1 + 2
        assert not check_symmetry(p)
        # Brute-force oracle: no unit ±x^k matches p(x^-1) against p.
        from normforge.laurent import invert_variables

        inv = invert_variables(p)
        for k in range(-4, 5):
            for sign in (1, -1):
                unit = LaurentPoly.monomial(1, (k,), sign)
                assert unit * p != inv


class TestE1Structure:
    def test_section6_passes(self, section6):
        report = check_e1_structure(alexander_data(section6.presentation))
        assert report.status == "pass"
        assert any("delta" in w for w in report.witnesses)

    def test_commutator_passes_with_unit_delta(self):
        report = check_e1_structure(alexander_data(presentation("a b", ["a b a^-1 b^-1"])))
        assert report.status == "pass"
        assert any("delta = 1" in w for w in report.witnesses)

    def test_unsupported_shapes(self):
        assert check_e1_structure(alexander_data(presentation("a b c", ["a b a^-1 b^-1"]))).status == "unsupported"
        assert check_e1_structure(alexander_data(presentation("a b", ["a b", "b a"]))).status == "unsupported"
        # 2 generators, 1 relator, but b_1 = 1 rather than 2.
        assert check_e1_structure(alexander_data(presentation("a b", ["a b"]))).status == "unsupported"

    def test_report_shape(self, section6):
        report = check_e1_structure(alexander_data(section6.presentation))
        d = report.as_dict()
        assert set(d) == {"check", "status", "witnesses"}
