import random

import pytest

from normforge import words
from normforge.words import (
    MAX_WORD_LETTERS,
    Generator,
    ParseError,
    Presentation,
    Word,
    free_abelianization,
    make_alphabet,
    parse_presentation_text,
    parse_word,
    presentation,
    smith_normal_form,
)

AB = make_alphabet("a b")


def random_word(rng, alphabet, max_len=12):
    letters = [
        (rng.randrange(len(alphabet)), rng.choice([1, -1]))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return Word(alphabet, letters)


class TestParsing:
    def test_expansion(self):
        w = parse_word("a^2 b a^-1", AB)
        assert w.letters == ((0, 1), (0, 1), (1, 1), (0, -1))

    def test_free_reduction(self):
        assert parse_word("a a^-1", AB).is_identity()
        assert parse_word("a b b^-1 a^-1", AB).is_identity()

    def test_caret_free_run(self):
        assert parse_word("a a b", AB) == parse_word("a^2 b", AB)

    def test_print_parse_idempotent(self):
        rng = random.Random(0)
        for _ in range(200):
            w = random_word(rng, AB)
            assert parse_word(str(w), AB) == w

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            parse_word("a c", AB)

    def test_malformed_exponent(self):
        with pytest.raises(ValueError, match="malformed exponent"):
            parse_word("a^x", AB)

    def test_zero_exponent(self):
        with pytest.raises(ValueError, match="zero exponent"):
            parse_word("a^0", AB)

    def test_empty_alphabet(self):
        with pytest.raises(ValueError, match="empty alphabet"):
            parse_word("a", ())

    def test_bad_generator_name(self):
        for name in ("2x", "", "_a", "a b", "a-1"):
            with pytest.raises(ValueError, match="bad generator name"):
                Generator(name)
            with pytest.raises(ValueError, match="bad generator name"):
                Generator(name=name)

    def test_presentation_checks(self):
        ab, other = make_alphabet("a b"), make_alphabet("a c")
        rel = parse_word("a b a^-1 b^-1", ab)
        assert Presentation(ab, (rel,)).relators == (rel,)
        with pytest.raises(ValueError, match="generator names must be unique"):
            Presentation((Generator("a"), Generator("b"), Generator("a")), ())
        with pytest.raises(ValueError, match="every relator must be a word over the presentation"):
            Presentation(other, (rel,))
        with pytest.raises(ValueError, match="every relator must be a word over the presentation"):
            Presentation(relators=(rel, parse_word("a c", other)), alphabet=ab)

    def test_word_length_limit(self):
        with pytest.raises(ValueError, match=r"token 1 \('a\^999999999'\)"):
            parse_word("a^999999999", AB)
        # The running length counts every token before free reduction.
        half = MAX_WORD_LETTERS // 2
        with pytest.raises(ValueError, match=rf"token 3 \('a\^-{half}'\)"):
            parse_word(f"a^{half} b a^-{half}", AB)
        assert len(parse_word(f"a^{MAX_WORD_LETTERS}", AB)) == MAX_WORD_LETTERS

    def test_word_length_limit_counts_before_reduction(self):
        # The two tokens cancel to the identity, but only after 1.2e6 letters.
        with pytest.raises(ValueError, match=r"token 2 \('a\^-600000'\)"):
            parse_word("a^600000 a^-600000", AB)

    def test_errors_name_the_first_occurrence_of_a_repeated_token(self):
        # Each distinct token is parsed once per call; its error still names
        # where it first appears, and every occurrence counts toward the length.
        for text, message in (
            ("a b a c b c", r"unknown generator 'c' in token 4 \('c'\)"),
            ("a^2 b a^2 a^x b a^x", r"malformed exponent 'x' in token 4 \('a\^x'\)"),
            ("b a b a^0 a^0", r"zero exponent in token 4 \('a\^0'\)"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_word(text, AB)
        half = MAX_WORD_LETTERS // 2 + 1
        with pytest.raises(ValueError, match=rf"token 3 \('a\^{half}'\)"):
            parse_word(f"a^{half} b^-1 a^{half}", AB)

    def test_tokens_reduce_like_expanded_letters(self):
        # Differential: whole-token reduction against Word's letter-by-letter one.
        rng = random.Random(16)
        for _ in range(3000):
            alphabet = make_alphabet("a b c"[: 2 * rng.randint(1, 3) - 1])
            tokens, letters = [], []
            for _ in range(rng.randrange(12)):
                gen = rng.randrange(len(alphabet))
                exp = rng.choice((1, 2, 3)) * rng.choice((1, -1))
                name = alphabet[gen].name
                tokens.append(name if exp == 1 and rng.random() < 0.5 else f"{name}^{exp}")
                letters += [(gen, 1 if exp > 0 else -1)] * abs(exp)
            assert parse_word(" ".join(tokens), alphabet) == Word(alphabet, letters)


# Independent oracle for the relator length: the sum of |exponent| over
# the printed tokens, computed without touching the Word machinery.
def token_letter_count(text):
    total = 0
    for tok in text.split():
        _, caret, exp = tok.partition("^")
        total += abs(int(exp)) if caret else 1
    return total


class TestSection6Relator:
    def test_letter_count_and_exponent_sums(self, section6):
        relator = section6.presentation.relators[0]
        # Oracle: expand the printed relator by hand (token arithmetic).
        source = str(relator)
        assert len(relator) == token_letter_count(source) == 42
        assert relator.exponent_vector() == (0, 0)

    def test_already_reduced(self, section6):
        relator = section6.presentation.relators[0]
        assert Word(AB, relator.letters) == relator
        assert relator.cyclically_reduced() == relator


class TestGroupOperations:
    def test_multiply_cancellation(self):
        ab_word = parse_word("a b", AB)
        assert ab_word * parse_word("b^-1 a", AB) == parse_word("a^2", AB)

    def test_multiply_simple(self):
        assert parse_word("a", AB) * parse_word("b", AB) == parse_word("a b", AB)

    def test_inverse_law(self):
        rng = random.Random(1)
        for _ in range(100):
            w = random_word(rng, AB)
            assert (w * w.inverse()).is_identity()
            assert (w.inverse() * w).is_identity()

    def test_invert_examples(self):
        assert parse_word("a b", AB).inverse() == parse_word("b^-1 a^-1", AB)
        assert Word(AB).inverse().is_identity()
        assert parse_word("a^2 b", AB).inverse() == parse_word("b^-1 a^-2", AB)

    def test_invert_involution(self):
        rng = random.Random(2)
        for _ in range(100):
            w = random_word(rng, AB)
            assert w.inverse().inverse() == w

    @pytest.mark.parametrize(
        "k, expected",
        [(-2, "a b^-2 a^-1"), (0, "1"), (1, "a b a^-1"), (3, "a b^3 a^-1")],
    )
    def test_power_examples(self, k, expected):
        assert parse_word("a b a^-1", AB) ** k == parse_word(expected, AB)

    def test_power_against_repeated_product(self):
        rng = random.Random(3)
        for _ in range(200):
            w = random_word(rng, AB)
            k = rng.randint(-4, 4)
            product = Word(AB)
            for _ in range(abs(k)):
                product = product * (w if k > 0 else w.inverse())
            assert w ** k == product

    def test_str_collects_runs(self):
        abc = make_alphabet("a b c")
        assert str(Word(abc)) == "1"
        assert str(parse_word("a a b^-1 b^-1 b^-1 c a^-1 a^-1 a b", abc)) == "a^2 b^-3 c a^-1 b"
        rng = random.Random(4)
        for _ in range(200):
            w = random_word(rng, abc)
            assert parse_word(str(w), abc) == w

    def test_alphabet_mismatch(self):
        other = make_alphabet("x y")
        with pytest.raises(ValueError, match="different alphabets"):
            parse_word("a", AB) * parse_word("x", other)

    def test_cyclic_reduction(self):
        w = parse_word("a b a b^-1 a^-1", AB)
        assert w.cyclically_reduced() == parse_word("a", AB)
        w2 = parse_word("b^-1 a b", AB)
        assert w2.cyclically_reduced() == parse_word("a", AB)

    def test_cyclic_reduction_against_reference(self):
        def reference(w):
            letters = list(w.letters)
            while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
                letters = letters[1:-1]
            return tuple(letters)

        abc = make_alphabet("a b c")
        rng = random.Random(17)
        for _ in range(300):
            core = random_word(rng, abc, max_len=6)
            conjugator = random_word(rng, abc, max_len=8)
            for w in (conjugator * core * conjugator.inverse(), random_word(rng, abc)):
                assert w.cyclically_reduced().letters == reference(w)

    def test_long_conjugating_prefix(self):
        # Stripping k end pairs slices once, so k = 10^5 takes linear time.
        k = 100_000
        w = parse_word(f"a^{k} b a^-{k}", AB)
        assert w.cyclically_reduced() == parse_word("b", AB)


class TestSmithNormalForm:
    @staticmethod
    def det(mat):
        from fractions import Fraction

        n = len(mat)
        m = [[Fraction(x) for x in row] for row in mat]
        result = Fraction(1)
        for c in range(n):
            pivot = next((r for r in range(c, n) if m[r][c]), None)
            if pivot is None:
                return 0
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                result = -result
            result *= m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                if f:
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return result

    def test_randomized(self):
        rng = random.Random(9)
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-7, 7) for _ in range(nc)] for _ in range(nr)]
            u, d, v = smith_normal_form(a, nr, nc)
            ua = [
                [sum(u[i][k] * a[k][j] for k in range(nr)) for j in range(nc)]
                for i in range(nr)
            ]
            uav = [
                [sum(ua[i][k] * v[k][j] for k in range(nc)) for j in range(nc)]
                for i in range(nr)
            ]
            assert uav == d
            diag = [d[i][i] for i in range(min(nr, nc))]
            assert all(x >= 0 for x in diag)
            assert all(
                d[i][j] == 0 for i in range(nr) for j in range(nc) if i != j
            )
            for x, y in zip(diag, diag[1:]):
                if x == 0:
                    assert y == 0
                elif y:
                    assert y % x == 0
            assert abs(self.det(u)) == 1
            assert abs(self.det(v)) == 1


class TestFreeAbelianization:
    def test_section6(self, section6):
        m = free_abelianization(section6.presentation)
        assert m.rank == 2
        assert m.matrix == ((1, 0), (0, 1))
        assert m.torsion == ()

    def test_cyclic_of_order_two(self):
        m = free_abelianization(presentation("x", ["x^2"]))
        assert m.rank == 0
        assert m.torsion == (2,)

    def test_free_abelian(self):
        m = free_abelianization(presentation("x y", ["x y x^-1 y^-1"]))
        assert m.rank == 2
        assert m.matrix == ((1, 0), (0, 1))

    def test_no_relators_gives_identity(self):
        for names in ("a", "a b", "a b c"):
            p = presentation(names, [])
            m = free_abelianization(p)
            n = len(p.alphabet)
            assert m.rank == n
            assert m.matrix == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n)
            )

    def test_annihilates_relators(self):
        rng = random.Random(3)
        alphabet = make_alphabet("a b c")
        for _ in range(50):
            rels = [random_word(rng, alphabet) for _ in range(rng.randint(0, 3))]
            p = Presentation(alphabet, tuple(rels))
            m = free_abelianization(p)
            for r in rels:
                assert m.image(r) == (0,) * m.rank

    def test_meridian_images(self, section6):
        m = free_abelianization(section6.presentation)
        mu1 = section6.words["meridian_unknotted"]
        mu2 = section6.words["meridian_other"]
        assert m.image(mu1) == (1, 0)
        assert m.image(mu2) == (-1, -1)
        assert m.image(section6.presentation.relators[0]) == (0, 0)

    def test_projection_that_misses_a_relator_raises(self, monkeypatch):
        # The check projects the relator exponent columns the Smith normal form
        # was built from, through the same ``_project`` that ``image`` uses.
        monkeypatch.setattr(words, "_project", lambda matrix, e: (1,) * len(matrix))
        p = presentation("a b", ["a b a^-1 b^-1"])
        with pytest.raises(ArithmeticError, match=r"relator 0 projects to \(1, 1\), not to zero"):
            free_abelianization(p)

    def test_additivity(self):
        rng = random.Random(4)
        p = presentation("a b", ["a b a^-1 b^-1"])
        m = free_abelianization(p)
        for _ in range(100):
            u, v = random_word(rng, AB), random_word(rng, AB)
            uv = m.image(u * v)
            added = tuple(
                x + y for x, y in zip(m.image(u), m.image(v))
            )
            assert uv == added


class TestPresentationFormat:
    def test_full_file(self):
        text = """
        # a demo presentation
        gens: a b
        rel: a b a^-1 b^-1   # torus
        word mu: a^-1 b^-1
        """
        pf = parse_presentation_text(text)
        assert [g.name for g in pf.presentation.alphabet] == ["a", "b"]
        assert len(pf.presentation.relators) == 1
        assert pf.words["mu"] == parse_word("a^-1 b^-1", AB)

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("rel: a b", 1, "rel: before gens:"),
            ("gens: a b\ngens: a", 2, "duplicate gens"),
            ("gens: a b\nrel: a c", 2, "unknown generator"),
            ("gens: a b\nword : a", 2, "missing a label"),
            ("gens: a b\nnope: a", 2, "unknown item"),
            ("gens: a b\nrel a b", 2, "expected 'key: value'"),
            ("", None, "missing gens"),
            ("gens: a b\nword m: a\nword m: b", 3, "duplicate word label"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_presentation_text(text)
        assert err.value.line == line
        assert fragment in str(err.value)
