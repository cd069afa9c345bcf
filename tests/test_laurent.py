import gc
import itertools
import math
import random
import re

import pytest

from normforge import laurent
from normforge.laurent import (
    LaurentPoly,
    divide_exact,
    equal_up_to_unit,
    exponent_map,
    gcd,
    gcd_many,
    invert_variables,
    normalize_unit,
    parse_poly,
    poly_matrix_det,
    poly_to_text,
    split_unit,
    substitute,
    unit_inverse,
    unit_quotient,
)

A = LaurentPoly.variable(2, 0)
B = LaurentPoly.variable(2, 1)
NAMES = ("a", "b")


def random_poly(rng, nvars=2, max_terms=4, span=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[e] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(nvars, terms)


def random_nonzero(rng, **kw):
    while True:
        p = random_poly(rng, **kw)
        if not p.is_zero():
            return p


def leibniz(m, nvars):
    """Determinant as the sum over all k! permutations: an oracle independent of poly_matrix_det."""
    k = len(m)
    total = LaurentPoly.zero(nvars)
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = LaurentPoly.constant(nvars, sign)
        for i in range(k):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def wide_entry(rng, nvars, magnitude, absent):
    """Up to 3 terms, each exponent within ±magnitude or small; variable ``absent`` never occurs."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = [
            rng.randint(-magnitude, magnitude) if rng.random() < 0.5 else rng.randint(-2, 2)
            for _ in range(nvars)
        ]
        e[absent] = 0
        terms[tuple(e)] = rng.randint(-3, 3)
    return LaurentPoly(nvars, terms)


class TestRingStructure:
    def test_product_golden(self):
        assert (A + 1) * (A - 1) == A**2 - 1

    def test_additive_inverse(self):
        rng = random.Random(0)
        for _ in range(50):
            p = random_poly(rng)
            assert (p + (-p)).is_zero()

    def test_factorization_identity(self, delta_golden):
        assert (A - 1) * (A * B - 1) == delta_golden

    def test_ring_axioms(self):
        rng = random.Random(1)
        for _ in range(120):
            p, q, r = (random_poly(rng, max_terms=3, span=2) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_term_count_bound(self):
        rng = random.Random(2)
        for _ in range(50):
            p, q = random_nonzero(rng), random_nonzero(rng)
            assert len((p * q).terms) <= len(p.terms) * len(q.terms)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            A + LaurentPoly.variable(3, 0)
        with pytest.raises(ValueError, match="mismatch"):
            A * LaurentPoly.variable(1, 0)
        with pytest.raises(ValueError, match="mismatch"):
            poly_matrix_det([[A, B], [A, LaurentPoly.variable(1, 0)]])


class TestDivideExact:
    def test_golden_quotient(self, delta_golden):
        q = divide_exact(delta_golden, A - 1)
        assert q is not None
        assert q * (A - 1) == delta_golden  # oracle: multiply back
        assert q == A * B - 1

    def test_self_division(self, delta_golden):
        assert divide_exact(delta_golden, delta_golden) == LaurentPoly.one(2)

    def test_support_mismatch(self):
        assert divide_exact(A + 1, B + 1) is None

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(A, LaurentPoly.zero(2))

    def test_random_products_divide_back(self):
        rng = random.Random(3)
        for _ in range(150):
            p = random_nonzero(rng, max_terms=3, span=2)
            d = random_nonzero(rng, max_terms=3, span=2)
            q = divide_exact(p * d, d)
            assert q == p

    def test_coefficient_obstruction(self):
        assert divide_exact(A + 1, 2 * A + 2) is None
        assert divide_exact(2 * A + 2, A + 1) == LaurentPoly.constant(2, 2)

    def test_division_oracle(self):
        # Oracle: multiplication.  A multiple of d spans at least d's lex
        # span (leading minus trailing exponent), because lead and trail
        # of a product are the sums of the factors' leads and trails; so a
        # nonzero r of smaller span is never a multiple of d, and neither
        # is p*d + r.
        def exact_terms(k, nvars):
            terms = {}
            while len(terms) < k:
                e = tuple(rng.randint(-3, 3) for _ in range(nvars))
                terms[e] = rng.choice([c for c in range(-4, 5) if c])
            return LaurentPoly(nvars, terms)

        def lex_span(f):
            lead, trail = max(f.terms), min(f.terms)
            return tuple(a - b for a, b in zip(lead, trail))

        rng = random.Random(11)
        refused = 0
        for _ in range(300):
            nvars = rng.randint(1, 3)
            d = exact_terms(rng.randint(1, 4), nvars)
            p = exact_terms(rng.randint(1, 5), nvars)
            assert divide_exact(p * d, d) == p
            other = exact_terms(rng.randint(1, 5), nvars)
            q = divide_exact(other, d)
            if q is not None:
                assert q * d == other
            if len(d.terms) > 1:
                lead = max((p * d).terms)
                r = exact_terms(1, nvars)
                if max(r.terms) < lead:
                    assert lex_span(r) < lex_span(d)
                    assert divide_exact(p * d + r, d) is None
                    refused += 1
        assert refused > 50


def long_quotient(p, d, kernel=laurent._dict_div_exact):
    """p / d by leading-term long division alone: the reference for the line-sum route.

    ``kernel`` is bound at definition, so counting the module's calls does not see these.
    """
    if p.is_zero():
        return p
    mp, md = p.min_exponents(), d.min_exponents()
    num = {tuple(a - b for a, b in zip(e, mp)): c for e, c in p.terms.items()}
    den = {tuple(a - b for a, b in zip(e, md)): c for e, c in d.terms.items()}
    quo = kernel(num, den)
    if quo is None:
        return None
    return LaurentPoly(p.nvars, quo).shifted(tuple(a - b for a, b in zip(mp, md)))


def count_long_divisions(monkeypatch) -> list:
    calls = []
    original = laurent._dict_div_exact

    def counted(num, den):
        calls.append(den)
        return original(num, den)

    monkeypatch.setattr(laurent, "_dict_div_exact", counted)
    return calls


# Steps v of the binomial x^v - 1: zero, negative and non-primitive entries.
STEPS = [(1,), (-2,), (3,), (1, 0), (0, 1), (0, 2), (-1, 3), (2, -2), (0, -1),
         (1, 0, 0), (0, 0, -2), (1, -1, 2), (0, 3, 0), (-2, 0, 4)]


class TestBinomialDivision:
    """Division by a unit binomial ±x^a (x^v - 1) runs line by line, not by long division.

    "The heap route" in two test names is long division, named after the max-heap it once kept.
    """

    def divisors(self, rng):
        for v in STEPS:
            for sign in (1, -1):
                a = tuple(rng.randint(-3, 3) for _ in v)
                top = tuple(x + y for x, y in zip(a, v))
                yield LaurentPoly(len(v), {top: sign, a: -sign})

    def test_matches_the_heap_route_term_for_term(self, monkeypatch):
        rng = random.Random(5)
        calls = count_long_divisions(monkeypatch)
        refused = 0
        for _ in range(6):
            for d in self.divisors(rng):
                n = d.nvars
                q = random_poly(rng, nvars=n, max_terms=12, span=4)
                p = q * d
                got = divide_exact(p, d)
                assert got is not None and got.terms == q.terms
                # One extra term changes its line's sum, so p + r is no multiple.
                r = random_nonzero(rng, nvars=n, max_terms=1, span=6)
                assert divide_exact(p + r, d) is None
                refused += 1
                other = random_poly(rng, nvars=n, max_terms=8, span=4)
                got = divide_exact(other, d)
                expected = long_quotient(other, d)
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got.terms == expected.terms
        assert refused == 6 * 2 * len(STEPS)
        assert calls == []

    def test_quotient_with_gaps_along_a_line(self, monkeypatch):
        calls = count_long_divisions(monkeypatch)
        # (a - 1)(1 + a^1000): the running sum is zero between the two pieces.
        p = (A - 1) * (1 + A ** 1000) * B
        assert divide_exact(p, A - 1) == (1 + A ** 1000) * B
        assert divide_exact(p, 1 - A) == -(1 + A ** 1000) * B
        assert divide_exact(A ** 12 - 1, A ** 3 - 1) == 1 + A ** 3 + A ** 6 + A ** 9
        assert calls == []

    @pytest.mark.parametrize("v", STEPS)
    def test_line_keys_never_collide(self, monkeypatch, v):
        # Each term's int key packs its line e + Zv and its place on the line.
        # A radix too small for that gives two lines one key range, or puts
        # them within a line's length of each other.  Two dividends provoke
        # it: lines spread over about ±10^4 that share one gap pattern, and a
        # dense box of lines, whose line points spread further than its
        # exponents do.  A multiple hides merged lines whose sums are zero, so
        # pairs of lines are also given opposite nonzero sums.
        rng = random.Random(f"lines {v}")
        calls = count_long_divisions(monkeypatch)
        n = len(v)
        gaps = sorted(rng.sample(range(40), 6))
        coeffs = [rng.choice([-3, -1, 1, 2]) for _ in gaps]
        spread = {}
        for _ in range(25):
            base = [rng.randint(-10_000, 10_000) for _ in v]
            for g, c in zip(gaps, coeffs):
                spread[tuple(x + g * y for x, y in zip(base, v))] = c
        side = {1: 40, 2: 12, 3: 6}[n]
        dense = {e: rng.choice([-2, -1, 1, 3]) for e in itertools.product(range(side), repeat=n)}
        for terms in (spread, dense):
            q = LaurentPoly(n, terms)
            a = tuple(rng.randint(-50, 50) for _ in v)
            d = LaurentPoly(n, {tuple(x + y for x, y in zip(a, v)): 1, a: -1})
            p = q * d
            got = divide_exact(p, d)
            assert got is not None
            assert got.terms == long_quotient(p, d).terms == q.terms
            assert divide_exact(p, -d) == -q
            # One more term, on a line of its own, leaves that line a nonzero sum.
            far = tuple(rng.randint(20_000, 30_000) for _ in v)
            assert divide_exact(p + LaurentPoly.monomial(n, far), d) is None
        # Two lines of the dense box with opposite nonzero sums, wherever the
        # second lies: p + x^e - x^f is a multiple only if f is on e's line.
        for e in (min(p.terms), max(p.terms)):
            for f in p.terms:
                step = [y - x for x, y in zip(e, f)]
                if any(step[m] * v[j] != step[j] * v[m] for m in range(n) for j in range(n)):
                    assert divide_exact(p + LaurentPoly(n, {e: 1, f: -1}), d) is None
        assert calls == []

    @pytest.mark.parametrize(
        "p, d",
        [
            ((A - 1) * (A * B + 3), 2 * A - 2),
            ((A + 1) * (B - 2), A + 1),
            ((A ** 2 * B ** -1 + 1) * (A - B), A ** 2 * B ** -1 + 1),
            ((A - 1) * (B + 1), 3 * (A - 1)),
            (A * B - 1, 2 * A - 2),
            ((A - 1) * (B + A), A - 1 + B),
            (5 * A ** 3 * B, -(A ** 2)),
        ],
    )
    def test_other_divisors_keep_the_heap_route(self, monkeypatch, p, d):
        calls = count_long_divisions(monkeypatch)
        expected = long_quotient(p, d)
        got = divide_exact(p, d)
        assert len(calls) == 1
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.terms == expected.terms and got * d == p


class TestGcd:
    def test_monomial_case_against_integer_oracle(self):
        # For monomial inputs c*x^e, d*x^f every monomial is a unit, so a
        # gcd is just gcd(c, d): brute force over the coefficient lattice.
        assert gcd(2 * A * B, 4 * A**2) == LaurentPoly.constant(2, math.gcd(2, 4))

    def test_gcd_with_zero(self, delta_golden):
        assert gcd(delta_golden, LaurentPoly.zero(2)) == normalize_unit(delta_golden)
        with pytest.raises(ValueError):
            gcd(LaurentPoly.zero(2), LaurentPoly.zero(2))

    def test_coprime_cofactors(self, delta_golden):
        g = gcd((B - 1) * delta_golden, (A - 1) * delta_golden)
        assert equal_up_to_unit(g, delta_golden)
        # Verify both divisions exactly, in both directions.
        for cof in (B - 1, A - 1):
            q = divide_exact(cof * delta_golden, g)
            assert q is not None and equal_up_to_unit(q, cof)

    def test_divides_both(self):
        rng = random.Random(4)
        for _ in range(100):
            p = random_nonzero(rng, max_terms=3, span=2)
            q = random_nonzero(rng, max_terms=3, span=2)
            g = gcd(p, q)
            assert divide_exact(p, g) is not None
            assert divide_exact(q, g) is not None

    def test_multiplicativity(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_nonzero(rng, max_terms=3, span=2, max_coeff=3)
            q = random_nonzero(rng, max_terms=3, span=2, max_coeff=3)
            r = random_nonzero(rng, max_terms=2, span=1, max_coeff=3)
            assert equal_up_to_unit(gcd(p * r, q * r), gcd(p, q) * r)

    def test_symmetry_up_to_unit(self):
        rng = random.Random(6)
        for _ in range(60):
            p = random_nonzero(rng)
            q = random_nonzero(rng)
            assert equal_up_to_unit(gcd(p, q), gcd(q, p))

    def test_candidate_that_does_not_divide_is_retried(self):
        # At the first evaluation point, 4, the candidate lifted from
        # gcd(2*4^4 - 5, 4^6 - 1) = 39 is 2x^2 + 2x - 1, which divides neither input.
        x = LaurentPoly.variable(1, 0)
        assert gcd(-4 * x**2 + 10 * x**-2, -6 * x**3 + 6 * x**-3) == 2

    def test_three_variable_pair_with_coefficient_swell(self):
        names = ("a", "b", "c")
        p = parse_poly("-6*a^4*b^4*c^2 + 6*b^2*c^-3", names)
        q = parse_poly(
            "-12*a^4*c^3 + 6*a^4*b^-2*c^3 + 15*a^3*b^-1*c^-1 + 12*a*b^2*c^-3", names
        )
        assert gcd(p, q) == LaurentPoly.constant(3, 3)

    @pytest.mark.parametrize("nvars", [3, 4])
    def test_common_factor_in_several_variables(self, nvars):
        rng = random.Random(nvars)
        for _ in range(40):
            f, g, h, r = (
                random_nonzero(rng, nvars=nvars, max_terms=3, span=2, max_coeff=5)
                for _ in range(4)
            )
            p, q = f * g, f * h
            d = gcd(p, q)
            assert divide_exact(p, d) is not None
            assert divide_exact(q, d) is not None
            assert divide_exact(d, f) is not None
            assert equal_up_to_unit(gcd(p * r, q * r), d * r)

    def test_gcd_many_and_integers(self):
        assert gcd_many([6 * A, 4 * B, 10 * A * B]) == LaurentPoly.constant(2, 2)
        c6 = LaurentPoly.constant(0, 6)
        c9 = LaurentPoly.constant(0, 9)
        assert gcd(c6, c9) == LaurentPoly.constant(0, 3)


class TestSubstitute:
    def test_inversion_termwise(self, delta_golden):
        inv = substitute(
            delta_golden,
            [LaurentPoly.monomial(2, (-1, 0)), LaurentPoly.monomial(2, (0, -1))],
        )
        expected = LaurentPoly(
            2, {(-2, -1): 1, (-1, -1): -1, (-1, 0): -1, (0, 0): 1}
        )
        assert inv == expected
        assert inv == invert_variables(delta_golden)

    def test_augmentation(self, delta_golden):
        ones = [LaurentPoly.one(2), LaurentPoly.one(2)]
        assert substitute(delta_golden, ones) == LaurentPoly.zero(2)
        assert delta_golden.augmentation() == 0

    def test_identity_substitution(self):
        rng = random.Random(7)
        images = [A, B]
        for _ in range(50):
            p = random_poly(rng)
            assert substitute(p, images) == p

    def test_homomorphism(self):
        rng = random.Random(8)
        images = [A * B, unit_inverse(B)]
        for _ in range(60):
            p = random_poly(rng, max_terms=3, span=2)
            q = random_poly(rng, max_terms=3, span=2)
            assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)
            assert substitute(p + q, images) == substitute(p, images) + substitute(q, images)

    def test_mutually_inverse_substitutions(self):
        rng = random.Random(9)
        fwd = [LaurentPoly.monomial(2, (1, 1)), LaurentPoly.monomial(2, (0, -1))]
        # (a, b) -> (ab, b^-1); inverse map is (a, b) -> (ab, b^-1) again.
        for _ in range(60):
            p = random_poly(rng)
            assert substitute(substitute(p, fwd), fwd) == p

    def test_image_count_and_ring_are_checked(self):
        with pytest.raises(ValueError, match="expected 2 images, got 1"):
            substitute(A + B, [A])
        with pytest.raises(ValueError, match="images live in different rings"):
            substitute(A + B, [A, LaurentPoly.variable(3, 0)])

    def test_constant_polynomials(self):
        # Zero variables: no images, and the constant lands in the 0-variable ring.
        assert substitute(LaurentPoly.constant(0, 5), []) == LaurentPoly.constant(0, 5)
        assert substitute(LaurentPoly.constant(2, -3), [A**-1, B]) == -3
        assert substitute(LaurentPoly.zero(2), [A + 1, B]) == LaurentPoly.zero(2)

    def test_noninvertible_image_with_negative_exponent(self):
        p = LaurentPoly.monomial(2, (-1, 0))
        with pytest.raises(ValueError, match="not a unit"):
            substitute(p, [A + 1, B])

    def test_general_image_nonnegative_exponents(self):
        p = A**2 + B
        image = [A + 1, B - 1]
        assert substitute(p, image) == (A + 1) ** 2 + (B - 1)


class TestUnitComparison:
    def test_witness(self, delta_golden):
        u = unit_quotient(delta_golden, -(A * B) * delta_golden)
        assert u == -(A * B)

    def test_not_associates(self):
        assert unit_quotient(A + 1, A - 1) is None
        assert not equal_up_to_unit(A + 1, A - 1)

    def test_symmetric_delta(self, delta_golden):
        assert equal_up_to_unit(delta_golden, invert_variables(delta_golden))

    def test_zero_cases(self):
        zero = LaurentPoly.zero(2)
        assert unit_quotient(zero, zero) == LaurentPoly.one(2)
        assert unit_quotient(zero, A) is None
        assert unit_quotient(A, zero) is None

    def test_equivalence_relation(self):
        rng = random.Random(10)
        for _ in range(40):
            p = random_nonzero(rng)
            u1 = LaurentPoly.monomial(2, (rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice([1, -1]))
            u2 = LaurentPoly.monomial(2, (rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice([1, -1]))
            q, r = u1 * p, u2 * p
            assert equal_up_to_unit(p, p)
            assert equal_up_to_unit(p, q) and equal_up_to_unit(q, p)
            assert equal_up_to_unit(p, q) and equal_up_to_unit(q, r) and equal_up_to_unit(p, r)

    def test_normalize_is_class_function(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_nonzero(rng)
            u = LaurentPoly.monomial(2, (rng.randint(-3, 3), rng.randint(-3, 3)), rng.choice([1, -1]))
            assert normalize_unit(u * p) == normalize_unit(p)
        assert normalize_unit(-(A**2) * B) == LaurentPoly.one(2)


class TestTextForm:
    def test_golden_rendering(self, delta_golden):
        assert poly_to_text(delta_golden, NAMES) == "a^2*b - a*b - a + 1"
        assert poly_to_text(-delta_golden, NAMES) == "-a^2*b + a*b + a - 1"

    def test_parse_golden(self, delta_golden):
        assert parse_poly("-a^2*b + a*b + a - 1", NAMES) == -delta_golden

    def test_roundtrip(self):
        rng = random.Random(12)
        for _ in range(80):
            p = random_poly(rng)
            assert parse_poly(poly_to_text(p, NAMES), NAMES) == p

    def test_constants_and_coefficients(self):
        assert poly_to_text(LaurentPoly.constant(2, -7), NAMES) == "-7"
        assert poly_to_text(LaurentPoly.zero(2), NAMES) == "0"
        assert poly_to_text(3 * A**2 - 2 * B, NAMES) == "3*a^2 - 2*b"
        assert poly_to_text(LaurentPoly.monomial(2, (-2, 1)), NAMES) == "a^-2*b"

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unknown variable"):
            parse_poly("a + c", NAMES)
        with pytest.raises(ValueError, match="malformed exponent"):
            parse_poly("a^b", NAMES)
        with pytest.raises(ValueError):
            parse_poly("", NAMES)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a^ -2", A**-2),
            ("a^\t-2 +b", A**-2 + B),
            ("- - a", A),
            ("-+- a - -b", A + B),
            ("a\t-\tb\n+ 2 * a ^ 2", A - B + 2 * A**2),
            ("0*a", LaurentPoly.zero(2)),
            ("a + 0*b - a", LaurentPoly.zero(2)),
            ("  0 ", LaurentPoly.zero(2)),
            ("2 * 3*a^-1*b", 6 * A**-1 * B),
        ],
    )
    def test_parse_signs_and_spacing(self, text, expected):
        assert parse_poly(text, NAMES) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            # A trailing sign is reported before anything wrong in earlier terms.
            ("c + a -", "dangling sign in 'c + a -'"),
            ("a^b - -", "dangling sign"),
            ("+", "dangling sign"),
            ("a^-", "malformed exponent in factor 'a^-'"),
            ("a^ -", "malformed exponent in factor 'a^ -'"),
            ("a * * b", "empty factor in term 'a * * b'"),
            ("a - c", "unknown variable 'c'"),
        ],
    )
    def test_parse_error_order(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_poly(text, NAMES)


class TestPolyMatrixDet:
    def test_two_by_two(self):
        det = poly_matrix_det([[A, B], [LaurentPoly.one(2), A]])
        assert det == A**2 - B

    def test_diagonal(self):
        zero = LaurentPoly.zero(2)
        det = poly_matrix_det([[A, zero], [zero, B]])
        assert det == A * B

    def test_three_by_three_against_expansion(self):
        # Leibniz oracle for sizes 1..6, sparse and dense entries, 0..3
        # variables, and singular matrices.
        rng = random.Random(13)
        for k in range(1, 7):
            for nvars in range(4):
                zero = LaurentPoly.zero(nvars)
                for zero_share in (0.0, 0.6):
                    m = [
                        [
                            zero
                            if rng.random() < zero_share
                            else random_nonzero(rng, nvars=nvars, max_terms=2, span=1)
                            for _ in range(k)
                        ]
                        for _ in range(k)
                    ]
                    cases = [(m, False)]
                    if k >= 2:
                        repeated_row = m[:-1] + [m[0]]
                        zero_column = [r[:1] + [zero] + r[2:] for r in m]
                        cases += [(repeated_row, True), (zero_column, True)]
                    for case, singular in cases:
                        expected = leibniz(case, nvars)
                        if singular:
                            assert expected.is_zero()
                        assert poly_matrix_det(case) == expected

    def test_packed_keys_against_leibniz(self):
        # Minors are keyed by packed ints whose field widths come from the
        # matrix's exponent ranges: check exponents far beyond any fixed
        # width, 4 and 5 variables, a variable absent from the whole matrix
        # (a zero-width field) first, in the middle and last, an all-zero
        # row, and 1x1 matrices.
        rng = random.Random(29)
        for magnitude in (2**20, 2**64, 10**30):
            for nvars in (4, 5):
                for absent in (0, nvars // 2, nvars - 1):
                    zero = LaurentPoly.zero(nvars)
                    big = [0] * nvars
                    big[(absent + 1) % nvars] = magnitude
                    up = LaurentPoly.monomial(nvars, big)
                    down = LaurentPoly.monomial(nvars, [-x for x in big], -2)
                    for k in (1, 2, 3, 4):
                        m = [[wide_entry(rng, nvars, magnitude, absent) for _ in range(k)]
                             for _ in range(k)]
                        # Both signs of the largest exponent in one row.
                        m[0][0] += up
                        m[0][-1] += down
                        det = poly_matrix_det(m)
                        assert det == leibniz(m, nvars)
                        assert all(e[absent] == 0 for e in det.terms)
                        for r in range(k):
                            assert poly_matrix_det(m[:r] + [[zero] * k] + m[r + 1:]) == zero

    def test_empty_row_is_not_square(self):
        with pytest.raises(ValueError, match="matrix is not square"):
            poly_matrix_det([[]])

    @staticmethod
    def kernel_choices(monkeypatch, rows):
        """The store choices ``poly_matrix_det(rows)`` makes: True for dense, False for dict."""
        choices = []
        choose = laurent._goes_dense

        def spy(*sizes):
            choices.append(choose(*sizes))
            return choices[-1]

        with monkeypatch.context() as m:
            m.setattr(laurent, "_goes_dense", spy)
            poly_matrix_det(rows)
        return choices

    def test_both_kernels_against_leibniz(self, monkeypatch):
        # Each matrix runs through the dict store and the dense store,
        # whatever the size rule would pick: 0-3 variables, sizes 2-6,
        # negative exponents, a variable absent from the whole matrix, and
        # coefficients small (digits of at most 64 bits, read through
        # memoryview.cast) or up to 2^40 (digits wider than 64 bits, read
        # slot by slot; the spy on the dense decode sees both widths).
        rng = random.Random(53)
        widths = set()
        dense_digits = laurent._dense_digits

        def dense_spy(det, slots, bits):
            widths.add(bits)
            return dense_digits(det, slots, bits)

        monkeypatch.setattr(laurent, "_dense_digits", dense_spy)
        for max_coeff in (3, 2**40):
            for nvars in range(4):
                absent = rng.randrange(nvars) if nvars >= 2 else None
                for k in range(2, 7):
                    m = []
                    for _ in range(k):
                        row = []
                        for _ in range(k):
                            p = random_poly(rng, nvars=nvars, max_terms=3, span=2, max_coeff=max_coeff)
                            if absent is not None:
                                p = LaurentPoly(nvars, {e[:absent] + (0,) + e[absent + 1:]: c
                                                        for e, c in p.terms.items()})
                            row.append(p)
                        m.append(row)
                    expected = leibniz(m, nvars)
                    for dense in (False, True):
                        monkeypatch.setattr(laurent, "_goes_dense", lambda *sizes: dense)
                        det = poly_matrix_det(m)
                        assert det == expected, (max_coeff, nvars, k, dense)
                        if absent is not None:
                            assert all(e[absent] == 0 for e in det.terms)
        assert min(widths) <= 64 < max(widths)

    @staticmethod
    def anchor_minor():
        """An 8x8 minor of the Fox matrix of the seed-0 braid-torus anchor braid."""
        from normforge import alexander, braid

        anchor = braid.parse_braid(
            "n=8: 4 -5 -6 -4 2 4 4 -1 6 3 -5 -4 -1 4 -1 6 -5 -2 3 4 -2 5 6 1 -7"
        )
        fox = alexander.alexander_matrix(braid.mapping_torus_presentation(anchor)).entries
        return [row[1:] for row in fox]

    def test_kernel_choice(self, monkeypatch):
        from normforge import braid

        # About 20 terms per row, so the anchor minor's minors fill their slots.
        assert self.kernel_choices(monkeypatch, self.anchor_minor()) == [True]
        # Burau(gamma_120): about 2 terms per row, near-monomial minors.
        assert self.kernel_choices(monkeypatch, braid.burau(braid.gamma(120)).entries) == [False]
        # Wide exponents: the dense int would have more than 2^20 slots.
        rng = random.Random(29)
        for magnitude in (2**20, 10**30):
            for k in (2, 3, 4):
                m = [[wide_entry(rng, 4, magnitude, 0) + 1 for _ in range(k)] for _ in range(k)]
                assert self.kernel_choices(monkeypatch, m) == [False]
        # Few rows over a large exponent box: at most 4 * 4 terms in 101^2 slots.
        box = [[sum(A**rng.randint(-25, 25) * B**rng.randint(-25, 25) for _ in range(2))
                for _ in range(2)] for _ in range(2)]
        assert self.kernel_choices(monkeypatch, box) == [False]
        # Enough terms to fill the slots, but the int would exceed 2^22 bits:
        # 4 monomials per row of a 12 x 12 band, each row spanning 3 * 2^16.
        x = LaurentPoly.variable(1, 0)
        band = [[x ** ((j - i) % 12 * 2**16) if (j - i) % 12 < 4 else LaurentPoly.zero(1)
                 for j in range(12)] for i in range(12)]
        assert self.kernel_choices(monkeypatch, band) == [False]

    def test_leaves_no_garbage_cycle(self, monkeypatch):
        # The memo of every minor is freed when the determinant returns, not
        # left in a reference cycle for the cyclic collector.
        from normforge import braid

        dense, sparse = self.anchor_minor(), braid.burau(braid.gamma(60)).entries
        assert self.kernel_choices(monkeypatch, dense) == [True]
        assert self.kernel_choices(monkeypatch, sparse) == [False]
        gc.collect()
        gc.disable()
        try:
            poly_matrix_det(dense)
            poly_matrix_det(sparse)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestConstructionRule:
    """Every result built from valid terms is adopted without a copy or a check.

    So each adopted dict must hold only nonzero coefficients under exponent
    tuples of the result's length, and must not be an operand's dict (the
    in-place multiply-accumulate kernel would then change a value that is
    shared).  A path may return an operand itself (the 1x1 determinant
    does), since values are immutable, but never a new polynomial around
    its dict.
    """

    @staticmethod
    def results(rng, nvars, p, q, unit):
        names = ("a", "b", "c")[:nvars]
        text = f"{names[-1]} + {poly_to_text(p, names)} - {names[-1]} + 0*{names[0]}"
        step = [0] * nvars
        step[rng.randrange(nvars)] = rng.choice((-2, -1, 1, 3))
        binomial = LaurentPoly.monomial(nvars, step) - 1
        matrix = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(rng.randint(1, 3))]
        shift = [rng.randint(-3, 3) for _ in range(nvars)]
        return {
            "add": p + q, "radd": 2 + p, "sub": p - q, "rsub": 3 - p, "neg": -p,
            "mul": p * q, "scale": p * -3, "pow": q**2, "shifted": p.shifted(shift),
            "unit_inverse": unit_inverse(unit), "invert_variables": invert_variables(p),
            "exponent_map": exponent_map(p, matrix), "gcd": gcd(p * q, q),
            "long division": divide_exact(p * q, q),
            "binomial division": divide_exact(p * binomial, binomial),
            "parse_poly": parse_poly(text, names),
            "det 1x1": poly_matrix_det([[p]]), "det 2x2": poly_matrix_det([[p, q], [unit, p]]),
            "det 3x3": poly_matrix_det([[p, q, unit], [q, unit, p], [unit, p, q]]),
            "normalize_unit": normalize_unit(p), "split_unit": split_unit(q)[0],
            "split_unit unit": split_unit(p)[1], "unit_quotient": unit_quotient(q, unit * q),
        }

    def test_adopted_results_are_valid_and_unshared(self):
        rng = random.Random(41)
        for nvars in (1, 2, 3):
            for _ in range(40):
                p = random_poly(rng, nvars=nvars)
                q = random_nonzero(rng, nvars=nvars)
                unit = LaurentPoly.monomial(
                    nvars, [rng.randint(-2, 2) for _ in range(nvars)], rng.choice((1, -1))
                )
                operands = (p, q, unit)
                before = [dict(x.terms) for x in operands]
                for path, r in self.results(rng, nvars, p, q, unit).items():
                    self.check(path, r, operands)
                assert [x.terms for x in operands] == before

    @staticmethod
    def check(path, r, operands):
        assert all(type(e) is tuple and len(e) == r.nvars for e in r.terms), path
        assert all(type(c) is int and c != 0 for c in r.terms.values()), path
        for x in operands:
            assert r is x or r.terms is not x.terms, path

    def test_determinants_are_valid_and_unshared(self):
        # n >= 2 unpacks int keys back to tuples; n = 1 returns its entry.
        # Entries repeat across the matrix, and some are zero.
        rng = random.Random(47)
        for nvars in range(6):
            for span in (3, 2**64):
                for k in (1, 2, 3, 4):
                    pool = [random_poly(rng, nvars=nvars, span=span) for _ in range(4)]
                    before = [dict(x.terms) for x in pool]
                    m = [[rng.choice(pool) for _ in range(k)] for _ in range(k)]
                    self.check(f"det {k}x{k}, {nvars} variables", poly_matrix_det(m), pool)
                    assert [x.terms for x in pool] == before

    def test_caller_terms_are_still_checked(self):
        # __init__ keeps its copy and checks for terms a caller supplies.
        terms = {(1, 0): 2, (0, 0): 0}
        p = LaurentPoly(2, terms)
        assert p.terms == {(1, 0): 2} and p.terms is not terms
        with pytest.raises(ValueError, match="expected 2"):
            LaurentPoly(2, {(1,): 1})

    def test_split_unit(self):
        rng = random.Random(43)
        for nvars in (1, 2, 3):
            for _ in range(60):
                p = random_poly(rng, nvars=nvars)
                n, u = split_unit(p)
                assert u.is_unit()
                assert u * n == p
                assert n == normalize_unit(p)
            zero = LaurentPoly.zero(nvars)
            assert split_unit(zero) == (zero, LaurentPoly.one(nvars))
