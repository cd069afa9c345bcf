import random
from functools import partial
from pathlib import Path

import pytest

from normforge import InvariantError, alexander, laurent
from normforge.alexander import (
    AlexanderMatrix,
    alexander_data,
    alexander_matrix,
    alexander_polynomial,
    check_e1_structure,
    check_fundamental_identity,
    check_symmetry,
    deficiency_one_quotient,
    elementary_ideal,
    fox_derivative,
)
from normforge.bns import compare_sigma, cone_arc, cone_contains, sigma_alexander
from normforge.braid import BraidWord, gamma, mapping_torus_presentation
from normforge.brown import brown_sigma
from normforge.laurent import (
    LaurentPoly,
    divide_exact,
    equal_up_to_unit,
    gcd_many,
    split_unit,
)
from normforge.words import (
    AbelianizationMap,
    Presentation,
    Word,
    free_abelianization,
    make_alphabet,
    parse_presentation_text,
    parse_word,
    presentation,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

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

    def test_one_pass_row_against_the_definition(self):
        # Reference: dw/dx_j = sum over the letters x_j^e of w = u x_j^e v of
        # +ab(u) for e = 1 and -ab(u x_j^-1) for e = -1, each prefix
        # abelianized anew.  The maps are random integer matrices
        # of rank 1-3, so generators may be zero, equal or dependent.
        rng = random.Random(8)
        for _ in range(120):
            s = rng.randint(2, 5)
            alphabet = make_alphabet(" ".join("abcde"[:s]))
            rank = rng.randint(1, 3)
            matrix = tuple(tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(rank))
            ab = AbelianizationMap(alphabet, rank, matrix, ())
            w = random_word(rng, alphabet, max_len=30)
            packed, _, layout = alexander._fox_row(w, ab)
            row = [alexander._unpack(rank, layout, terms) for terms in packed]
            assert len(row) == s
            for j, g in enumerate(alphabet):
                expected = LaurentPoly.zero(rank)
                for pos, (idx, sign) in enumerate(w.letters):
                    if idx == j:
                        end = pos + 1 if sign < 0 else pos
                        prefix = ab.image(Word(alphabet, w.letters[:end]))
                        expected += LaurentPoly.monomial(rank, prefix, sign)
                assert row[j] == expected
                assert fox_derivative(w, g, ab) == row[j]
                assert fox_derivative(w, g.name, ab) == row[j]

    @staticmethod
    def tuple_row(w, ab):
        """Reference Fox row: the prefix walked as a tuple, one letter at a time."""
        images = [ab.generator_image(j) for j in range(len(w.alphabet))]
        row = [{} for _ in images]
        prefix = (0,) * ab.rank
        for idx, sign in w.letters:
            if sign < 0:
                prefix = tuple(p - x for p, x in zip(prefix, images[idx]))
            row[idx][prefix] = row[idx].get(prefix, 0) + sign
            if sign > 0:
                prefix = tuple(p + x for p, x in zip(prefix, images[idx]))
        return [LaurentPoly(ab.rank, terms) for terms in row]

    @pytest.mark.parametrize("rank", [0, 3])
    def test_packed_row_to_the_ends_of_its_box(self, rank):
        # Coordinate i of a prefix lies within b_i = len(w) * max_j |v_j[i]|
        # of 0.  Generator a moves by the largest |entry| in every coordinate,
        # so a^n and a^-n walk to opposite corners of that box, and the
        # identity's residue x^(image of w) - 1 reaches the last prefix.
        rng = random.Random(f"fox box {rank}")
        alphabet = make_alphabet("a b c d")
        for _ in range(4):
            big = rng.randint(1, 1000)
            matrix = tuple(
                (rng.choice([-big, big]), *(rng.randint(-big, big) for _ in range(3)))
                for _ in range(rank)
            )
            ab = AbelianizationMap(alphabet, rank, matrix, ())
            n = rng.randint(1900, 2100)
            words = [
                Word(alphabet, [(0, 1)] * n),
                Word(alphabet, [(0, -1)] * n),
                Word(alphabet, [(rng.randrange(4), rng.choice([1, -1])) for _ in range(n)]),
            ]
            for w in words:
                packed, steps, layout = alexander._fox_row(w, ab)
                unpack = partial(alexander._unpack, rank, layout)
                row = [unpack(terms) for terms in packed]
                assert row == self.tuple_row(w, ab)
                residue = LaurentPoly.monomial(rank, ab.image(w)) - 1
                if residue:
                    with pytest.raises(InvariantError) as caught:
                        alexander._check_identity(0, packed, steps, unpack)
                    assert caught.value.witness == f"relator 0: residue {residue!r}"
                else:
                    alexander._check_identity(0, packed, steps, unpack)
            # a^n ends at the corner n v_a of its box, reached by the residue
            # alone; a^-n has a term at the opposite corner.
            corner = tuple(n * moves[0] for moves in matrix)
            assert all(abs(x) == n * big for x in corner)
            assert ab.image(words[0]) == corner
            assert tuple(-x for x in corner) in self.tuple_row(words[1], ab)[0].terms

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

    def test_doctored_matrix_fails_the_identity(self):
        # Doubling dr/da leaves the residue (1 - b)(a - 1) on relator 0;
        # the check is an explicit raise, so it also runs under python -O.
        mat = alexander_matrix(presentation("a b", ["a b a^-1 b^-1"]))
        (row,) = mat.entries
        message = "fundamental identity fails on relator 0: residue"
        with pytest.raises(InvariantError, match=message) as caught:
            AlexanderMatrix(mat.presentation, mat.abelianization, ((2 * row[0], row[1]),))
        assert caught.value.stage == "fundamental identity"
        assert caught.value.witness == "relator 0: residue LaurentPoly(2, '-x*y + x + y - 1')"
        # Keyword construction runs the same check.
        with pytest.raises(InvariantError, match=message):
            AlexanderMatrix(
                entries=((2 * row[0], row[1]),),
                presentation=mat.presentation,
                abelianization=mat.abelianization,
            )


    def test_doctored_packed_row_fails_the_identity(self, monkeypatch):
        # The builder's own check: one coefficient of the packed row of dr/da
        # has its sign flipped, so dr/da = -1 - b and the residue is 2 - 2a.
        pres = presentation("a b", ["a b a^-1 b^-1"])
        walk = alexander._fox_row

        def doctored(w, ab):
            row, steps, layout = walk(w, ab)
            key = next(k for k, c in row[0].items() if c)
            row[0][key] = -row[0][key]
            return row, steps, layout

        monkeypatch.setattr(alexander, "_fox_row", doctored)
        message = "fundamental identity fails on relator 0: residue"
        with pytest.raises(InvariantError, match=message) as caught:
            alexander_matrix(pres)
        assert caught.value.stage == "fundamental identity"
        assert caught.value.witness == "relator 0: residue LaurentPoly(2, '-2*x + 2')"


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

    def test_columns_restrict_the_minors(self):
        # The commutator's minors without column a, without column b, and
        # none when the columns are fewer than the minor size.
        mat = alexander_matrix(presentation("a b", ["a b a^-1 b^-1"]))
        assert elementary_ideal(mat, 1, [1]).generators == (A - 1,)
        assert elementary_ideal(mat, 1, [0]).generators == (1 - B,)
        assert elementary_ideal(mat, 0, [0, 1]).generators == ()
        assert elementary_ideal(mat, 2, []).generators == (LaurentPoly.one(2),)


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


def golden_presentation(name):
    return parse_presentation_text((GOLDEN / name).read_text(encoding="utf-8")).presentation


def closed_relator(rng, length):
    """A random reduced word in a, b with both exponent sums zero, so b_1 = 2."""
    while True:
        letters = [(rng.randrange(2), rng.choice([1, -1])) for _ in range(length)]
        sums = [sum(sign for idx, sign in letters if idx == g) for g in range(2)]
        for g in range(2):
            letters += [(g, -1 if sums[g] > 0 else 1)] * abs(sums[g])
        w = Word(AB, letters)
        if not w.is_identity():
            return w


def certified_cases():
    rng = random.Random(5)
    cases = {name: golden_presentation(name) for name in ("link3.pres", "z2.pres")}
    cases.update((f"gamma_{n}", mapping_torus_presentation(gamma(n))) for n in range(3, 7))
    cases.update((f"relator_{i}", Presentation(AB, (closed_relator(rng, 40),))) for i in range(12))
    cases.update((f"commutator_{k}", presentation("a b", [f"a^{k} b a^-{k} b^-1"]))
                 for k in (1, 2, 5, 17, 60))
    return cases


CERTIFIED = certified_cases()


def seeded_tori():
    """Mapping tori of seeded braids on n = 3..9 strands with 1 and 2 cycles (b_1 = 2 and 3)."""
    rng = random.Random(23)
    tori = {}
    for n in range(3, 10):
        for cycles in (1, 2):
            while (name := f"torus_n{n}_c{cycles}") not in tori:
                length = n + rng.randint(1, 2)
                letters = tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length))
                pres = mapping_torus_presentation(BraidWord(n, letters))
                if free_abelianization(pres).rank == cycles + 1:
                    tori[name] = pres
    return tori


TORI = seeded_tori()


def first_minors(pres):
    mat = alexander_matrix(pres)
    return mat, elementary_ideal(mat, 1).generators


def record_gcd_calls(monkeypatch):
    calls = []

    def recording(polys):
        calls.append(polys)
        return gcd_many(polys)

    monkeypatch.setattr(alexander, "gcd_many", recording)
    return calls


def count_det_calls(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return laurent.poly_matrix_det(rows)

    monkeypatch.setattr(alexander, "poly_matrix_det", counting)
    return calls


class TestDeficiencyOneQuotient:
    """The certified one-minor quotient against the gcd route it replaces."""

    @pytest.mark.parametrize("name", list(CERTIFIED) + list(TORI))
    def test_matches_gcd_route(self, name):
        pres = CERTIFIED.get(name) or TORI[name]
        mat, minors = first_minors(pres)
        quotient, units = deficiency_one_quotient(mat)
        reference = gcd_many([g for g in minors if not g.is_zero()])
        assert quotient.terms == reference.terms
        # Every minor is its unit witness times its binomial times Delta.
        ab = mat.abelianization
        binomials = [LaurentPoly.monomial(ab.rank, ab.generator_image(k)) - 1 for k in range(mat.ncols)]
        by_column = minors[::-1]
        for k, minor in enumerate(by_column):
            assert units[k].is_unit()
            assert minor == units[k] * binomials[k] * quotient
        # Whichever column j with a nonzero image is dropped, D_j / f_j is
        # Delta term for term, with the same units (-1)^(j+k) u.
        admissible = [j for j in range(mat.ncols) if not binomials[j].is_zero()]
        assert len(admissible) >= 2
        for j in admissible:
            (minor,) = elementary_ideal(mat, 1, [c for c in range(mat.ncols) if c != j]).generators
            assert minor == by_column[j]
            q, unit = split_unit(divide_exact(minor, binomials[j]))
            assert q.terms == reference.terms
            assert tuple(unit * (-1) ** (j + k) for k in range(mat.ncols)) == units
        assert alexander_data(pres).polynomial.terms == reference.terms
        if len(pres.alphabet) == 2 and len(pres.relators) == 1:
            # Brown's cones against the Alexander cones: every verdict is
            # certified and its witness checks by cone membership alone.
            inner, outer = brown_sigma(pres), sigma_alexander(pres)
            for report in compare_sigma(inner, outer):
                cone = next(c for c in inner.components if c.label == report.inner_label)
                assert report.certified
                if report.relation == "not_contained":
                    assert cone_contains(cone, report.witness)
                    assert not any(cone_contains(c, report.witness) for c in outer.components)
                elif report.relation == "equal":
                    host = next(c for c in outer.components if c.label == report.outer_label)
                    assert report.witness is None and cone_arc(host) == cone_arc(cone)
                else:
                    assert report.relation == "properly_contained"
                    host = next(c for c in outer.components if c.label == report.outer_label)
                    assert cone_contains(host, report.witness)
                    assert not cone_contains(cone, report.witness)

    def test_one_determinant_per_deficiency_one_polynomial(self, monkeypatch):
        calls = count_det_calls(monkeypatch)
        cases = [p for p in [*CERTIFIED.values(), *TORI.values()] if len(p.alphabet) >= 3]
        assert len(cases) >= len(TORI)
        for pres in cases:
            calls.clear()
            alexander_data(pres)
            assert calls == [len(pres.alphabet) - 1]

    @pytest.mark.parametrize("pres", [
        pytest.param(presentation("a b", ["a b a b^-1 a^-1 b^-1"]), id="trefoil_b1_one"),
        pytest.param(presentation("a b", ["a b a^-1 b^-1", "a^2 b a^-2 b^-1"]), id="two_relators"),
        pytest.param(golden_presentation("rank0.pres"), id="rank0"),
        pytest.param(golden_presentation("free2.pres"), id="free2_no_relator"),
    ])
    def test_other_shapes_take_the_gcd_route(self, pres, monkeypatch):
        mat, minors = first_minors(pres)
        # The shape is read off the matrix alone: no minor is computed.
        dets = count_det_calls(monkeypatch)
        assert deficiency_one_quotient(mat) is None
        assert dets == []
        nonzero = [g for g in minors if not g.is_zero()]
        calls = record_gcd_calls(monkeypatch)
        data = alexander_data(pres)
        if nonzero:
            assert calls == [nonzero]
            assert data.polynomial == gcd_many(nonzero)
        else:
            assert calls == [] and data.degenerate

    def test_certified_route_skips_gcd(self, monkeypatch):
        calls = record_gcd_calls(monkeypatch)
        for pres in CERTIFIED.values():
            alexander_data(pres)
        assert calls == []

    def test_parallel_images_have_no_certificate(self, monkeypatch):
        # A hand-made map sending a and b to the same class: D_1 = 1 - x and
        # D_0 = x - 1 divide exactly and agree up to a unit, but their gcd
        # is x - 1, not the quotient 1, because the binomials are parallel.
        pres = presentation("a b", ["a b a^-1 b^-1"])
        ab = AbelianizationMap(AB, 2, ((1, 1), (0, 0)), ())
        rel = pres.relators[0]
        mat = AlexanderMatrix(pres, ab, ((fox_derivative(rel, "a", ab), fox_derivative(rel, "b", ab)),))
        minors = elementary_ideal(mat, 1).generators
        assert gcd_many(minors) == LaurentPoly.variable(2, 0) - 1
        # Parallel images are seen before any minor: the gcd route computes them.
        dets = count_det_calls(monkeypatch)
        assert deficiency_one_quotient(mat) is None
        assert dets == []

    def test_vanishing_minors_are_degenerate_after_one_determinant(self, monkeypatch):
        # One relator given twice: D_j = 0 for a column with a nonzero
        # image, so by Cramer every maximal minor vanishes.
        pres = golden_presentation("vanish3.pres")
        mat, minors = first_minors(pres)
        assert mat.abelianization.rank == 3 and all(g.is_zero() for g in minors)
        calls = count_det_calls(monkeypatch)
        delta, units = deficiency_one_quotient(mat)
        assert delta.is_zero() and units is None and calls == [2]
        gcd_calls = record_gcd_calls(monkeypatch)
        data = alexander_data(pres)
        assert data.degenerate and data.polynomial.is_zero() and data.e1_units is None
        assert gcd_calls == []

    def test_failed_division_contradicts_the_identity(self, monkeypatch):
        # Fox's identity makes the division exact, so a failure is an
        # arithmetic fault, not a reason to fall back to the gcd route.
        # The check is an explicit raise, so it also runs under python -O.
        monkeypatch.setattr(alexander, "binomial_quotient", lambda *args: None)
        with pytest.raises(InvariantError, match="deficiency-one quotient") as caught:
            alexander_data(CERTIFIED["relator_0"])
        assert caught.value.stage == "deficiency-one quotient"
        assert "contradicting Fox's identity" in caught.value.witness


def syllable_relator(rng, syllables):
    """a^p1 b^q1 ... then the negated powers in shuffled order: closed, |powers| <= 50."""
    powers = [[rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(syllables)] for _ in "ab"]
    for own in powers:
        closing = [-x for x in own]
        rng.shuffle(closing)
        own += closing
    return Word(AB, [(g, 1 if x > 0 else -1) for pair in zip(*powers) for g, x in enumerate(pair)
                     for _ in range(abs(x))])


def one_relator_family():
    """200 seeded closed relators on a, b: 170 of syllables, 30 of a^k b a^-k b^-1 or
    b^k a b^-k a^-1 (k <= 2000), then [[a, b], [a, b^2]], whose Fox derivatives vanish."""
    rng = random.Random(24)
    words = [syllable_relator(rng, rng.randint(1, 4)) for _ in range(170)]
    for _ in range(30):
        k = rng.randint(1, 2000)
        long, short = rng.sample(["a", "b"], 2)
        words.append(parse_word(f"{long}^{k} {short} {long}^-{k} {short}^-1", AB))
    return [*words, golden_presentation("degenerate2.pres").relators[0]]


class TestPackedOneRelatorQuotient:
    """At s = 2, Delta straight from the packed Fox row against the decoded-entry routes."""

    def test_matches_the_tuple_route(self):
        forced = set()
        for w in one_relator_family():
            pres = Presentation(AB, (w,))
            data = alexander_data(pres)
            ((da, db),) = alexander_matrix(pres).entries
            nonzero = [g for g in (da, db) if not g.is_zero()]
            if not nonzero:
                assert data.degenerate and data.e1_units is None
                continue
            # Delta is the gcd of the two 1 x 1 minors, elementary_ideal's E_1.
            _, minors = first_minors(pres)
            assert set(minors) == {da, db}
            assert data.polynomial.terms == gcd_many(nonzero).terms
            # Dropping the column with more terms (a on a tie) leaves the other
            # entry; its quotient by the dropped generator's binomial, split by
            # split_unit, is Delta term for term in the same order, with its units.
            j = 0 if len(da.terms) >= len(db.terms) else 1
            forced.add(j)
            q, unit = split_unit(divide_exact((db, da)[j], (A - 1, B - 1)[j]))
            assert list(data.polynomial.terms.items()) == list(q.terms.items())
            assert data.e1_units == (unit * (-1) ** j, unit * (-1) ** (j + 1))
        assert forced == {0, 1}

    def test_a_line_that_does_not_sum_to_zero_has_no_quotient(self):
        # dr/da = b^7 - 1 for r = [b^7, a], divided along b on the walk's own
        # keys, where the lines a^0 b^Z and a^1 b^Z pack next to each other.
        # Moving one unit from line a^1 to line a^0 keeps the total at 0, and
        # the two lines' keys lie span + 1 apart, so only the same-line gap
        # test sees the line that does not sum to zero.
        w = parse_word("b^7 a b^-7 a^-1", AB)
        row, _, layout = alexander._fox_row(w, free_abelianization(Presentation(AB, (w,))))
        strides, _, bounds = layout
        delta, unit = laurent.binomial_quotient(row[0], (0, 1), layout)
        assert (delta, unit) == (sum(B**k for k in range(7)), LaurentPoly.one(2))
        doctored = dict(row[0])
        for x, y, c in ((0, 3, 1), (1, 0, -1)):
            key = (x + bounds[0]) * strides[0] + (y + bounds[1]) * strides[1]
            doctored[key] = doctored.get(key, 0) + c
        assert laurent.binomial_quotient(doctored, (0, 1), layout) is None

    @pytest.mark.parametrize("rel", ["a^2 b a^-1 b a^2 b^-1 a^-3 b^-1", "b^7 a b^-7 a^-1"])
    def test_decodes_no_entry_and_computes_no_determinant(self, rel, monkeypatch):
        unpacked = []
        unpack = alexander._unpack

        def recording(*args):
            unpacked.append(args)
            return unpack(*args)

        monkeypatch.setattr(alexander, "_unpack", recording)
        dets = count_det_calls(monkeypatch)
        data = alexander_data(presentation("a b", [rel]))
        assert not data.degenerate and data.e1_units is not None
        assert unpacked == [] and dets == []
        assert "entries" not in vars(data.matrix) and data.matrix.nrows == 1
        data.matrix.entries
        assert len(unpacked) == 2

    def test_lazy_entries_equal_an_eager_decode(self):
        for pres in [*(Presentation(AB, (w,)) for w in one_relator_family()[::20]),
                     TORI["torus_n5_c2"], TORI["torus_n4_c1"],
                     golden_presentation("vanish3.pres"), presentation("a b", [])]:
            lazy, other = alexander_matrix(pres), alexander_matrix(pres)
            ab = lazy.abelianization
            eager = tuple(tuple(fox_derivative(r, g, ab) for g in pres.alphabet) for r in pres.relators)
            built = AlexanderMatrix(pres, ab, eager)
            assert "entries" not in vars(lazy)
            # repr, hash and == read the entries; the decode is cached.
            assert repr(lazy) == repr(built)
            assert "entries" in vars(lazy)
            assert lazy.entries == eager and lazy.entries is lazy.entries
            assert hash(other) == hash(built) and other == built and built == other
            assert lazy == other and not lazy != built
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            alexander_matrix(pres).missing
        with pytest.raises(AttributeError, match="immutable"):
            lazy.entries = eager


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

    def test_reports_units_without_multiplying(self, section6, monkeypatch):
        pres = (section6.presentation, presentation("a b", ["a b a^-1 b^-1"]))
        data = [alexander_data(p) for p in pres]
        calls = []
        real = laurent._dict_mul
        monkeypatch.setattr(laurent, "_dict_mul", lambda a, b: calls.append(1) or real(a, b))
        assert [check_e1_structure(d).status for d in data] == ["pass", "pass"]
        assert calls == []

    def test_report_shape(self, section6):
        # The fields, in order, are the keys of the report in check's JSON output.
        report = check_e1_structure(alexander_data(section6.presentation))
        assert list(vars(report)) == ["check", "status", "witnesses"]
