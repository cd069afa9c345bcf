"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact (tolerance zero): polynomial identities hold up
to an explicit unit witness, geometric data is integer or rational, and
set comparisons are equalities.  Runtime budgets are asserted with
generous margins against wall-clock time.
"""

import itertools
import json
import random
import time

from normforge.alexander import alexander_data, check_fundamental_identity, check_symmetry, fox_derivative
from normforge.bns import cone_contains, sigma_principal
from normforge.braid import (
    BraidWord,
    burau,
    is_n_cycle,
    mapping_torus_delta,
    mapping_torus_delta_fox,
)
from normforge.cli import main
from normforge.laurent import (
    LaurentPoly,
    divide_exact,
    equal_up_to_unit,
    gcd,
    invert_variables,
    parse_poly,
)
from normforge.polytope import balance_center, hull_vertices, newton_polytope
from normforge.words import Presentation, Word, free_abelianization, make_alphabet

from test_polytope import extreme_points_oracle

AB = make_alphabet("a b")
A = LaurentPoly.variable(2, 0)
B = LaurentPoly.variable(2, 1)


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_criterion_1_alexander_polynomial_golden(capsys, delta_golden):
    start = time.monotonic()
    status, out = run_cli(capsys, "alexander", "@section6.pres")
    elapsed = time.monotonic() - start
    assert status == 0
    computed = parse_poly(out.splitlines()[0], ("a", "b"))
    assert equal_up_to_unit(computed, delta_golden)
    assert computed == delta_golden  # normalized representative, exactly
    assert elapsed < 1.0
    print(f"PASS criterion 1: alexander -> a^2*b - a*b - a + 1 (up to unit, exact) in {elapsed:.3f}s")


def test_criterion_2_sigma_a_golden(capsys):
    start = time.monotonic()
    status, out = run_cli(capsys, "sigma-a", "@section6.pres", "--format", "json")
    elapsed = time.monotonic() - start
    assert status == 0
    data = json.loads(out)
    assert len(data["components"]) == 4
    assert data["complement_is_finite"] is True
    complement = {tuple(p) for p in data["complement_points"]}
    assert complement == {(0, 1), (0, -1), (1, -1), (-1, 1)}
    assert elapsed < 1.0
    print(f"PASS criterion 2: sigma-a -> 4 components, complement ±(0,1), ±(1,-1) in {elapsed:.3f}s")


def test_criterion_3_brown_sigma_and_containment(capsys, section6):
    start = time.monotonic()
    status, out = run_cli(capsys, "sigma-brown", "@section6.pres", "--format", "json")
    assert status == 0
    brown = json.loads(out)
    assert len(brown["components"]) == 2

    status, out = run_cli(capsys, "compare-question-b", "@section6.pres", "--format", "json")
    elapsed = time.monotonic() - start
    assert status == 0
    data = json.loads(out)
    assert data["question_b"] == "no"
    assert len(data["comparisons"]) == 2

    # Re-verify every witness by cone membership alone, reconstructing
    # the cones independently through the library.
    from normforge.bns import sigma_alexander
    from normforge.brown import brown_sigma

    inner_desc = brown_sigma(section6.presentation)
    outer_desc = sigma_alexander(section6.presentation)
    for row in data["comparisons"]:
        assert row["relation"] == "properly_contained"
        assert row["certified"] is True
        witness = tuple(row["witness"])
        inner = next(c for c in inner_desc.components if list(c.label) == row["inner_label"])
        outer = next(c for c in outer_desc.components if list(c.label) == row["outer_label"])
        assert cone_contains(outer, witness)
        assert not cone_contains(inner, witness)
    assert elapsed < 1.0
    print(f"PASS criterion 3: brown sigma has 2 components, both PROPERLY contained with verified witnesses in {elapsed:.3f}s")


def test_criterion_4_e1_structure_at_p1(section6, delta_golden):
    pres = section6.presentation
    m = free_abelianization(pres)
    r = pres.relators[0]
    da = fox_derivative(r, "a", m)
    db = fox_derivative(r, "b", m)
    ua = divide_exact(da, (B - 1) * delta_golden)
    ub = divide_exact(db, (A - 1) * delta_golden)
    assert ua is not None and ua.is_unit()
    assert ub is not None and ub.is_unit()
    assert equal_up_to_unit(da, (B - 1) * delta_golden)
    assert equal_up_to_unit(db, (A - 1) * delta_golden)
    print("PASS criterion 4: dr/da = unit*(b-1)*Delta and dr/db = unit*(a-1)*Delta (exact)")


def test_criterion_5_symmetry_and_balance(section6):
    from fractions import Fraction

    delta = alexander_data(section6.presentation).polynomial
    assert check_symmetry(delta)
    assert equal_up_to_unit(delta, invert_variables(delta))
    poly = newton_polytope(delta)
    z0 = balance_center(poly)
    assert z0 == (Fraction(1), Fraction(1, 2))
    antipode = {tuple(2 * z0[i] - v[i] for i in range(2)) for v in poly.hull}
    assert antipode == set(poly.hull)
    print("PASS criterion 5: Delta symmetric up to unit; balance center (1, 1/2); antipodal map permutes hull")


def enumerate_ncycle_braids():
    """Fixed enumerated oracle set: every n-cycle word with n=2 length<=5,
    n=3 length<=4, n=4 length<=3, n=5 length<=4 (all lengths <= 6), in
    lexicographic order."""
    out = []
    for n, max_len in ((2, 5), (3, 4), (4, 3), (5, 4)):
        gens = [(i, s) for i in range(1, n) for s in (1, -1)]
        for length in range(1, max_len + 1):
            for combo in itertools.product(gens, repeat=length):
                b = BraidWord(n, combo)
                if is_n_cycle(b):
                    out.append(b)
    return out


def test_criterion_6_burau_fox_cross_oracle():
    start = time.monotonic()
    words = enumerate_ncycle_braids()
    assert len(words) >= 200
    for b in words:
        det_route = mapping_torus_delta(b, t_substitution="direct").poly
        fox_route = mapping_torus_delta_fox(b)
        assert equal_up_to_unit(det_route, fox_route), f"mismatch at {b}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 6: det(wI - Burau) matches Fox-calculus Delta on all "
        f"{len(words)} enumerated n-cycle words (t -> t' direct) in {elapsed:.1f}s"
    )


def _random_word(rng, alphabet, max_len=10):
    return Word(
        alphabet,
        [
            (rng.randrange(len(alphabet)), rng.choice([1, -1]))
            for _ in range(rng.randrange(max_len + 1))
        ],
    )


def _random_poly(rng, nvars=2, max_terms=3, span=2, max_coeff=4):
    terms = {
        tuple(rng.randint(-span, span) for _ in range(nvars)): rng.randint(
            -max_coeff, max_coeff
        )
        for _ in range(rng.randint(0, max_terms))
    }
    return LaurentPoly(nvars, terms)


def _random_nonzero_poly(rng, **kw):
    while True:
        p = _random_poly(rng, **kw)
        if not p.is_zero():
            return p


def test_criterion_7_property_suites():
    start = time.monotonic()

    # (a) Fox product rule and fundamental identity: 1000 random word pairs.
    rng = random.Random(1234)
    free_ab = free_abelianization(Presentation(AB, ()))
    for _ in range(1000):
        u, v = _random_word(rng, AB), _random_word(rng, AB)
        u_bar = LaurentPoly.monomial(2, free_ab.image(u))
        for gen in ("a", "b"):
            lhs = fox_derivative(u * v, gen, free_ab)
            rhs = fox_derivative(u, gen, free_ab) + u_bar * fox_derivative(v, gen, free_ab)
            assert lhs == rhs
        if not u.is_identity():
            report = check_fundamental_identity(alexander_data(Presentation(AB, (u,))))
            assert report.status == "pass"

    # (b) Gcd divides both inputs and is multiplicative: 500 random pairs.
    rng = random.Random(5678)
    for _ in range(500):
        p = _random_nonzero_poly(rng)
        q = _random_nonzero_poly(rng)
        g = gcd(p, q)
        assert divide_exact(p, g) is not None
        assert divide_exact(q, g) is not None
        r = _random_nonzero_poly(rng, max_terms=2, span=1, max_coeff=3)
        assert equal_up_to_unit(gcd(p * r, q * r), g * r)

    # (c) Hull vs brute-force extremality on a fixed random corpus of
    # point sets with <= 12 points in dimension <= 3.
    rng = random.Random(91011)
    corpus = []
    for _ in range(120):
        dim = rng.choice([1, 2, 2, 3])
        count = rng.randint(1, 12 if dim < 3 else 9)
        corpus.append(
            sorted(set(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)))
        )
    for pts in corpus:
        assert sorted(hull_vertices(pts)) == extreme_points_oracle(pts)

    # (d) Monomial-translation and inversion-antipodal invariance of
    # sigma_principal on 100 random rank-2 polynomials.
    rng = random.Random(121314)
    for _ in range(100):
        p = _random_nonzero_poly(rng, max_terms=5, span=3)
        shift = LaurentPoly.monomial(2, (rng.randint(-4, 4), rng.randint(-4, 4)))
        s = sigma_principal(p)
        s_shift = sigma_principal(p * shift)
        assert [c.constraints for c in s.components] == [
            c.constraints for c in s_shift.components
        ]
        assert sigma_principal(-p) == s
        s_inv = sigma_principal(invert_variables(p))
        flipped = {
            tuple(-x for x in c.label): frozenset(tuple(-x for x in d) for d in c.constraints)
            for c in s_inv.components
        }
        assert flipped == {
            c.label: frozenset(c.constraints) for c in s.components
        }

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        "PASS criterion 7: property suites (1000 Fox pairs, 500 gcd pairs, "
        f"120 hull corpora, 100 sigma polynomials), all exact, in {elapsed:.1f}s"
    )


def test_criterion_8_out_of_scope_documented():
    # Thurston norm values, fibered-face identification, hyperbolicity
    # and volume are outside what exact desk-scale arithmetic can reach;
    # the property suites above are the substitute coverage.  Nothing to
    # compute: this records the exclusion.
    print(
        "PASS criterion 8: out-of-scope items (Thurston norm side, hyperbolic volume) "
        "documented; property suites stand in"
    )
