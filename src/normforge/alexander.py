"""Fox calculus, Alexander matrices, elementary ideals, Alexander polynomials.

The Alexander matrix of a presentation has one row per relator and one
column per generator; entry (i, j) is the free-differential derivative
of relator i with respect to generator j, pushed into the group ring of
the free abelianized quotient.  Fox's fundamental identity

    sum_j (dr/dx_j) (x_j - 1) = r - 1 = 0   in Z[ab(G)]

holds on every row.  :func:`alexander_matrix` walks each relator once with
the prefix packed into one int key and checks the full identity on that
packed row.  The matrix keeps the packed rows and decodes its entries
only when they are first read; a matrix built from caller entries checks
the identity itself (see :class:`AlexanderMatrix`).

The i-th elementary ideal is generated by the (s-i) x (s-i) minors of
this matrix (s = number of generators), with the usual Fitting-ideal
conventions: minors larger than the matrix generate the zero ideal, and
the empty 0 x 0 minor is 1, so E_s = (1).  The Alexander polynomial is
the gcd of the generators of E_1, normalized as in :mod:`.laurent` and
therefore well defined only up to a unit ±monomial.

For a deficiency-one presentation (s generators, s-1 relators) with
b_1 >= 2, E_1 = m * (Delta) with m the augmentation ideal (McMullen,
Ann. Sci. ENS 2002, Thm 5.1), so Delta is one exact quotient
D_j / (x^{v_j} - 1) of a maximal minor by a generator's binomial.  The
checked identity certifies it through Cramer's rule, which also gives
the unit witness of every other minor, so only D_j is computed: one
(s-1) x (s-1) determinant instead of s (see
:func:`deficiency_one_quotient`).  For one relator on two generators D_j
is the other entry of the packed row, divided on the walk's own keys:
no entry is decoded and no determinant is taken, and Delta's terms are
built once, by :func:`.laurent.binomial_quotient`.  Any other shape takes
the gcd of all E_1 generators.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import prod
from operator import countOf, mul
from typing import Callable, Sequence

from ._record import record
from .errors import InvariantError
from .laurent import (
    Layout,
    LaurentPoly,
    binomial_quotient,
    equal_up_to_unit,
    gcd_many,
    invert_variables,
    poly_matrix_det,
    poly_to_text,
    unpack as _unpack,
)
from .words import (
    AbelianizationMap,
    Generator,
    Presentation,
    Word,
    free_abelianization,
)


def _fox_row(w: Word, ab: AbelianizationMap) -> tuple[list[dict[int, int]], list[int], Layout]:
    """The Fox row of w on packed int keys, in one pass: (row, steps, layout).

    A prefix's exponent vector is one int (Kronecker substitution).  Its
    coordinate i is within b_i = len(w) * max_j |x_j's move along i| of 0,
    so it is the digit of radix 2 b_i + 1, offset by b_i, and digits never
    carry.  The letter x_j^±1 after the prefix u adds +u_bar (or
    -u_bar x_j_bar^-1) to dw/dx_j alone: one int add and one dict update.
    ``row[j]`` holds dw/dx_j by key, zeros kept; ``steps[j]`` is x_j's
    packed image; ``layout`` is (strides, radices, bounds), the offsets
    being the bounds, which :func:`.laurent.unpack` (bound here as
    ``_unpack``) and :func:`.laurent.binomial_quotient` decode.
    """
    images = list(zip(*ab.matrix)) or [()] * len(w.alphabet)
    bounds = [len(w) * max(map(abs, moves)) for moves in ab.matrix]
    radices = [2 * b + 1 for b in bounds]
    strides = [prod(radices[:i]) for i in range(ab.rank)]
    steps = [sum(map(mul, v, strides)) for v in images]
    row: list[dict[int, int]] = [{} for _ in images]
    key = sum(map(mul, bounds, strides))
    for idx, sign in w.letters:
        terms = row[idx]
        if sign > 0:
            terms[key] = terms.get(key, 0) + 1
            key += steps[idx]
        else:
            key -= steps[idx]
            terms[key] = terms.get(key, 0) - 1
    return row, steps, (strides, radices, bounds)


def _check_identity(i: int, row: list[dict[int, int]], steps: list[int], unpack: Callable) -> None:
    """Fox's identity sum_j (dr/dx_j)(x_j - 1) = 0 on relator i's packed row.

    Each term c x^e of dr/dx_j adds c at e + v_j and -c at e to one residue.
    On a walked row both are prefixes of the walk, inside its box, so the
    residue is zero on packed keys exactly when it is zero.
    """
    residue: dict[int, int] = {}
    get = residue.get
    for terms, step in zip(row, steps):
        for k, c in terms.items():
            residue[k] = get(k, 0) - c
            k += step
            residue[k] = get(k, 0) + c
    if any(residue.values()):
        raise _identity_failure(i, unpack(residue))


def _identity_failure(i: int, residue: LaurentPoly) -> InvariantError:
    witness = f"relator {i}: residue {residue!r}"
    return InvariantError("fundamental identity", witness, f"fundamental identity fails on {witness}")


def fox_derivative(w: Word, x: Generator | str, ab: AbelianizationMap) -> LaurentPoly:
    """Free-differential derivative dw/dx in Z[ab(G)]: x's entry of the Fox row of w.

    Satisfies d(uv)/dx = du/dx + u_bar * dv/dx, with d(x)/dx = 1 and
    d(x^-1)/dx = -x_bar^-1.

    >>> from .words import make_alphabet, parse_word, presentation
    >>> pres = presentation("a b", [])
    >>> m = free_abelianization(pres)
    >>> w = parse_word("a b", pres.alphabet)
    >>> fox_derivative(w, "a", m) == LaurentPoly.one(2)
    True
    """
    if w.alphabet != ab.alphabet:
        raise ValueError("word and abelianization are over different alphabets")
    name = x.name if isinstance(x, Generator) else x
    try:
        target = next(i for i, g in enumerate(w.alphabet) if g.name == name)
    except StopIteration:
        raise ValueError(f"generator {name!r} is not in the alphabet") from None
    row, _, layout = _fox_row(w, ab)
    return _unpack(ab.rank, layout, row[target])


@record
class AlexanderMatrix:
    """Abelianized Fox derivative matrix of a presentation.

    Every instance has passed Fox's fundamental identity on every relator.
    :func:`alexander_matrix` checks it on the packed rows it walks and
    builds the matrix through ``_adopt`` without checking again; a matrix
    built from caller entries checks it in ``__post_init__``.  Both raise
    :class:`InvariantError` naming the relator and its residue.

    An adopted matrix keeps its packed rows and decodes ``entries`` on
    first access, once; equality, hash and repr read ``entries`` as for a
    caller-built matrix.
    """

    presentation: Presentation
    abelianization: AbelianizationMap
    entries: tuple[tuple[LaurentPoly, ...], ...]  # rows = relators, cols = generators

    @property
    def nrows(self) -> int:
        return len(self.presentation.relators)

    @property
    def ncols(self) -> int:
        return len(self.presentation.alphabet)

    @classmethod
    def _adopt(cls, presentation, abelianization, packed) -> "AlexanderMatrix":
        # Takes (row, layout) per relator, its identity checked by the caller,
        # without __post_init__.
        mat = object.__new__(cls)
        mat.__dict__.update(presentation=presentation, abelianization=abelianization, _packed=packed)
        return mat

    def __getattr__(self, name: str):
        # Only an adopted matrix's ``entries`` is missing, until its first read.
        if name != "entries" or "_packed" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rank = self.abelianization.rank
        self.__dict__[name] = tuple(tuple(map(partial(_unpack, rank, lay), row)) for row, lay in self._packed)
        return self.entries

    def __post_init__(self) -> None:
        # Caller entries: the residue sum_j (dr/dx_j)(x_j - 1) of each row, in full.
        ab = self.abelianization
        binomials = [LaurentPoly.monomial(ab.rank, ab.generator_image(j)) - 1 for j in range(self.ncols)]
        for i, row in enumerate(self.entries):
            residue = sum(map(mul, row, binomials), LaurentPoly.zero(ab.rank))
            if residue:
                raise _identity_failure(i, residue)


def alexander_matrix(p: Presentation) -> AlexanderMatrix:
    """Matrix of abelianized Fox derivatives of the relators, Fox's identity checked."""
    ab = free_abelianization(p)
    packed = []
    for i, r in enumerate(p.relators):
        row, steps, layout = _fox_row(r, ab)
        _check_identity(i, row, steps, partial(_unpack, ab.rank, layout))
        packed.append((row, layout))
    return AlexanderMatrix._adopt(p, ab, tuple(packed))


@record
class ElementaryIdealGens:
    """Generators (minors) of the i-th elementary ideal of an Alexander matrix."""

    index: int
    minor_size: int
    generators: tuple[LaurentPoly, ...]


def elementary_ideal(
    mat: AlexanderMatrix, i: int, columns: Sequence[int] | None = None
) -> ElementaryIdealGens:
    """The (s-i) x (s-i) minors, with Fitting conventions for degenerate sizes.

    Minors run over row subsets, then column subsets, both in
    lexicographic order.  ``columns`` (increasing indices; all s by
    default) restricts the columns a minor may use: at deficiency one,
    all columns but j give the single maximal minor D_j that
    :func:`deficiency_one_quotient` needs.  The size s-i stays that of
    E_i either way.
    """
    if i < 0:
        raise ValueError("elementary ideal index must be nonnegative")
    s = mat.ncols
    k = s - i
    rank = mat.abelianization.rank
    if k <= 0:
        return ElementaryIdealGens(i, 0, (LaurentPoly.one(rank),))
    if k > mat.nrows:
        return ElementaryIdealGens(i, k, ())
    gens: list[LaurentPoly] = []
    for rows in combinations(range(mat.nrows), k):
        for cols in combinations(range(s) if columns is None else columns, k):
            sub = [[mat.entries[r][c] for c in cols] for r in rows]
            gens.append(poly_matrix_det(sub))
    return ElementaryIdealGens(i, k, tuple(gens))


@record
class AlexanderData:
    """Alexander polynomial with its matrix and, at deficiency one, E_1's unit witnesses.

    ``e1_units[k]`` is the unit u_k with D_k = u_k * (x^{v_k} - 1) * Delta
    for the minor D_k without column k; it is None on the gcd route.
    """

    polynomial: LaurentPoly  # unit-normalized; zero when degenerate
    matrix: AlexanderMatrix
    e1_units: tuple[LaurentPoly, ...] | None
    degenerate: bool  # E_1 had no nonzero generator
    rank_zero: bool  # b_1 = 0, so the group ring is Z

    @property
    def abelianization(self) -> AbelianizationMap:
        return self.matrix.abelianization


def deficiency_one_quotient(
    mat: AlexanderMatrix,
) -> tuple[LaurentPoly, tuple[LaurentPoly, ...] | None] | None:
    """Delta of a deficiency-one matrix and the units u_k with D_k = u_k f_k Delta.

    D_k is the maximal minor without column k, and f_k = x^{v_k} - 1 for
    the image v_k of generator k.  Fox's identity M f = 0 (checked when
    ``mat`` was built) and Cramer's rule M ((-1)^k D_k)_k = 0 put f and
    the signed minors on one line, so D_k = (-1)^(j+k) Q f_k with
    Q = D_j / f_j for any j with v_j != 0.  So one minor is computed:
    among the columns with a nonzero image, j is the one with the most
    terms (the first on a tie), which leaves the sparsest
    (s-1) x (s-1) determinant.  When two images are non-parallel their
    binomials are coprime, so Q is exact (a nonzero line sum in the
    division raises :class:`InvariantError`) and E_1 = m * (Q).  With
    (Delta, u) = split_unit(Q), so Q = u Delta, the units are
    u_k = (-1)^(j+k) u; another j changes Q by (-1)^(j+j') only, so
    neither Delta nor the units depend on j.

    The signed minors are c f for one c in the fraction field, so D_j = 0
    with f_j != 0 means c = 0: every maximal minor vanishes, and the
    result is (0, None), degenerate.  Returns None for parallel images
    and every shape other than s generators, s-1 relators, b_1 >= 2.

    On a matrix from :func:`alexander_matrix` with s = 2, the terms are
    counted and D_j is read on the packed row, and
    :func:`.laurent.binomial_quotient` divides it on the walk's keys,
    which pack each axis line without a carry.  Otherwise D_j comes from
    :func:`elementary_ideal` and is packed for the division.  Either way
    (Delta, u) is the scan's one decode, so Delta and the units are term
    for term the same on both routes.
    """
    s = mat.ncols
    ab = mat.abelianization
    if mat.nrows != s - 1 or ab.rank < 2:
        return None
    images = [ab.generator_image(j) for j in range(s)]
    candidates = [j for j in range(s) if any(images[j])]
    if not candidates:
        return None
    # At s = 2 the walk's keys pack the exponents themselves (b_1 = 2 makes
    # the abelianization the identity), so its one row is read as it stands.
    packed = mat.__dict__.get("_packed") if ab.matrix == ((1, 0), (0, 1)) else None
    rows = [row for row, _ in packed] if packed else [[e.terms for e in row] for row in mat.entries]
    j = max(candidates, key=lambda c: sum(len(row[c]) - countOf(row[c].values(), 0) for row in rows))
    base = images[j]
    if not any(base[a] * v[b] != base[b] * v[a]
               for v in images for a, b in combinations(range(ab.rank), 2)):
        return None
    minor = rows[0][1 - j] if packed else elementary_ideal(
        mat, 1, [c for c in range(s) if c != j]).generators[0]
    found = binomial_quotient(minor, base, packed[0][1] if packed else None)
    if found is None:
        raise InvariantError(
            "deficiency-one quotient",
            f"x^{base} - 1 does not divide the minor without column {j}, "
            "contradicting Fox's identity",
        )
    delta, unit = found
    return delta, None if delta.is_zero() else tuple(unit * (-1) ** (j + k) for k in range(s))


def alexander_data(p: Presentation) -> AlexanderData:
    """Alexander polynomial of ``p`` with its matrix and E_1 unit witnesses.

    Delta is the deficiency-one quotient D_j / (x^{v_j} - 1) of
    :func:`deficiency_one_quotient`, certified by Fox's identity, when
    ``p`` has one relator fewer than generators, b_1 >= 2 and two
    non-parallel generator images; otherwise it is the gcd of the
    nonzero E_1 generators.  Either way Delta is zero, and the data
    degenerate, exactly when every E_1 generator vanishes.
    """
    mat = alexander_matrix(p)
    rank = mat.abelianization.rank
    found = deficiency_one_quotient(mat)
    if found is None:
        nonzero = [g for g in elementary_ideal(mat, 1).generators if not g.is_zero()]
        found = (gcd_many(nonzero) if nonzero else LaurentPoly.zero(rank), None)
    delta, units = found
    return AlexanderData(delta, mat, units, delta.is_zero(), rank == 0)


def alexander_polynomial(p: Presentation) -> LaurentPoly:
    """Alexander polynomial, unit-normalized.

    The certified deficiency-one quotient when b_1 >= 2 and there is one
    relator fewer than generators, otherwise the gcd of the first
    elementary ideal (see :func:`alexander_data`).  Returns the zero
    polynomial when every E_1 generator vanishes (use
    :func:`alexander_data` to see that flag, and the rank-0 flag for
    presentations whose free abelianized quotient is trivial).
    """
    return alexander_data(p).polynomial


def check_symmetry(d: LaurentPoly) -> bool:
    """Whether d(x) and d(x^-1) agree up to a unit."""
    return equal_up_to_unit(d, invert_variables(d))


@record
class CheckReport:
    """Outcome of a structural check; its fields, in order, are the keys of its JSON report."""

    check: str
    status: str  # "pass" | "fail" | "unsupported"
    witnesses: tuple[str, ...]


def check_e1_structure(data: AlexanderData) -> CheckReport:
    """Report E_1 = m * (Delta) for a two-generator one-relator presentation.

    Concretely: dr/da = u * (b - 1) * Delta and dr/db = u' * (a - 1) * Delta,
    where m is the augmentation ideal, with the unit witnesses u, u' that
    :func:`deficiency_one_quotient` read off Fox's identity.  Only the
    verifiable shape (2 generators, 1 relator, b_1 = 2) is accepted;
    anything else is reported as unsupported, not an error.
    """
    name = "e1_structure"
    p = data.matrix.presentation
    if len(p.alphabet) != 2 or len(p.relators) != 1:
        return CheckReport(
            name,
            "unsupported",
            (f"needs 2 generators and 1 relator, got {len(p.alphabet)} and {len(p.relators)}",),
        )
    ab = data.abelianization
    if ab.rank != 2:
        return CheckReport(name, "unsupported", (f"needs b_1 = 2, got {ab.rank}",))
    if data.degenerate:
        return CheckReport(name, "fail", ("both Fox derivatives vanish",))

    names = tuple(g.name for g in p.alphabet)
    witnesses = [f"delta = {poly_to_text(data.polynomial, names)}"]
    # b_1 = 2 forces the abelianization matrix to be the identity here, so
    # dr/dx_j is the minor without column ``other``, whose binomial is
    # (x_other - 1).
    for j, other in ((0, 1), (1, 0)):
        unit = poly_to_text(data.e1_units[other], names)
        witnesses.append(f"d/d{names[j]} = u * ({names[other]} - 1) * delta with u = {unit}")
    return CheckReport(name, "pass", tuple(witnesses))


def check_fundamental_identity(data: AlexanderData) -> CheckReport:
    """Report the Fox fundamental identity row by row.

    The matrix handed in has already passed it: :func:`alexander_matrix`
    checks the full residue on each packed Fox row as it builds the matrix, and
    a matrix built from caller entries checks it in ``__post_init__``; a
    nonzero residue raises :class:`InvariantError` in either case.
    """
    return CheckReport(
        "fundamental_identity",
        "pass",
        tuple(f"relator {i}: sum_j (dr/dx_j)(x_j - 1) = 0" for i in range(data.matrix.nrows)),
    )
