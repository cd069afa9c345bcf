"""Braid words, the reduced Burau representation, and mapping-torus invariants.

The reduced Burau representation sends the n-strand braid group into
GL(n-1, Z[t^±1]).  The generator images used here are the standard
reduced form

    sigma_1     -> [[-t, 0], [1, 1]] (+) I
    sigma_i     -> I (+) [[1, t, 0], [0, -t, 0], [0, 1, 1]] (+) I
    sigma_{n-1} -> I (+) [[1, t], [0, -t]]

(1x1 matrix [-t] when n = 2).  The matrix convention is not what
anchors correctness: for a braid whose underlying permutation is an
n-cycle, the characteristic-polynomial invariant det(wI - Burau(beta))
must agree, up to a unit and the documented variable identification,
with the Alexander polynomial of the braid's mapping torus computed by
Fox calculus from an explicit presentation.  That cross-check is
convention independent and is exercised exhaustively in the test suite.

The mapping-torus presentation has generators x_1, ..., x_n, s and
relators  s x_i s^{-1} (beta_*(x_i))^{-1},  where beta_* is the usual
action on the free group of the punctured disc:

    sigma_i:  x_i -> x_i x_{i+1} x_i^{-1},   x_{i+1} -> x_i.

beta_* is composed once per braid, as a table of the generator images
beta_*(x_1), ..., beta_*(x_n) built left to right over the braid letters;
the presentation's relators and :func:`braid_action` both read it.

For an n-cycle braid the free abelianization has rank 2 with basis (the
common puncture-loop class, the suspension class); in that basis the
determinant formula holds with the identity substitution t -> t' under
the conventions above (the toggle ``t_substitution="inverse"`` applies
t -> t'^{-1} instead, for comparing against the opposite loop
orientation).
"""

from __future__ import annotations

# ``alexander`` is bound as a module, so only the Fox cross-check runs it
# (see the package docstring).
from . import alexander
from ._record import record
from .errors import InvariantError
from .laurent import (
    LaurentPoly,
    exponent_map,
    poly_matrix_det,
    unpack,
)
from .words import (
    Generator,
    ParseError,
    Presentation,
    Word,
    make_alphabet,
)

BraidLetter = tuple[int, int]  # (generator index in 1..n-1, sign)

# Most strands a BraidWord may have: ``burau`` builds an (n-1) x (n-1) matrix,
# so ``n=100000: 1`` would exhaust memory.  The bound caps that matrix, not the
# determinant after it: on gamma(256), one subprocess run of ``normforge burau``
# takes 0.18-0.22 s and 26 MB, and one of ``normforge mapping-torus`` 30-42 s
# and 455 MB, nearly all in the 255 x 255 determinant det(wI - B) (2-vCPU
# x86-64 VM shared with other load, Python 3.11.7).
MAX_STRANDS = 256


@record
class BraidWord:
    """A word in the braid generators sigma_1, ..., sigma_{n-1}."""

    strands: int
    letters: tuple[BraidLetter, ...]

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError("a braid group needs at least 2 strands")
        if self.strands > MAX_STRANDS:
            raise ValueError(f"more than {MAX_STRANDS} strands ({self.strands})")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(
                    f"generator index {idx} out of range for {self.strands} strands"
                )
            if sign not in (1, -1):
                raise ValueError("braid letter signs must be ±1")

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple((i, -s) for i, s in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise ValueError("strand count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def __str__(self) -> str:
        body = " ".join(str(i * s) for i, s in self.letters)
        return f"n={self.strands}: {body}"


def parse_braid(text: str) -> BraidWord:
    """Parse the grammar ``n=5: 1 2 -3 4`` (signed generator indices).

    Comments (from ``#``) and blank lines are ignored, so braid files
    can carry a description.  Errors are :class:`ParseError` with the
    line of the bad header or letter, or with no line for a text that
    has no header at all.
    """
    strands = None
    letters: list[BraidLetter] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            if strands is None:
                head, colon, line = line.partition(":")
                head = head.replace(" ", "")
                if not colon or not head.startswith("n="):
                    raise ValueError("braid text must start with 'n=<strands>:'")
                try:
                    strands = int(head[2:])
                except ValueError:
                    raise ValueError(f"malformed strand count {head[2:]!r}") from None
            line_letters = []
            for tok in line.split():
                try:
                    k = int(tok)
                except ValueError:
                    raise ValueError(f"malformed braid letter {tok!r}") from None
                line_letters.append((abs(k), 1 if k > 0 else -1))
            # BraidWord checks the strand count and each letter's index (0 included).
            letters += BraidWord(strands, tuple(line_letters)).letters
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if strands is None:
        raise ParseError(None, "empty braid text")
    return BraidWord(strands, tuple(letters))


def gamma(n: int) -> BraidWord:
    """The ascending product sigma_1 sigma_2 ... sigma_{n-1}; an n-cycle braid."""
    if n < 2:
        raise ValueError("gamma(n) needs n >= 2")
    return BraidWord(n, tuple((i, 1) for i in range(1, n)))


def permutation(b: BraidWord) -> tuple[int, ...]:
    """Underlying permutation of the punctures, as images (0-indexed).

    Each sigma_i maps to the transposition (i, i+1); letters compose so
    that the first letter of the word acts last, matching the matrix
    product convention of :func:`burau`.
    """
    perm = list(range(b.strands))
    for idx, _sign in reversed(b.letters):
        i = idx - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def is_n_cycle(b: BraidWord) -> bool:
    """Whether the puncture permutation is a single n-cycle."""
    perm = permutation(b)
    seen = 1
    k = perm[0]
    while k != 0:
        k = perm[k]
        seen += 1
    return seen == b.strands


# --------------------------------------------------------------------------
# Reduced Burau matrices
# --------------------------------------------------------------------------


@record
class BurauMatrix:
    """An (n-1) x (n-1) matrix over Z[t^±1]; invertible, det = ±t^k."""

    strands: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    @property
    def dim(self) -> int:
        return self.strands - 1

    def det(self) -> LaurentPoly:
        return poly_matrix_det(self.entries)


def burau(b: BraidWord) -> BurauMatrix:
    """Reduced Burau matrix of a braid word (product of generator images).

    >>> m = burau(BraidWord(2, ((1, 1),)))
    >>> m.entries[0][0] == -LaurentPoly.variable(1, 0)
    True
    """
    dim = b.strands - 1
    # cols[j + 1] is column j: one dict from row * R + (e + L) to the
    # coefficient of t^e in that row, L the braid length and R = 2L + 1.  Each
    # letter moves an exponent by at most 1, so e stays in [-L, L], the digit
    # e + L in [0, R), and multiplying by t^±1 adds ±1 to a key without a
    # carry.  cols[0] and cols[dim + 1] stay empty: the missing neighbours of
    # the first and the last column.
    # A generator differs from I in column i only, so right-multiplying by
    # it rewrites that column: col_i <- l col_{i-1} + c col_i + r col_{i+1},
    # (l, c, r) = (t, -t, 1) for sigma_i and (1, -t^-1, t^-1) for its inverse.
    low = len(b.letters)
    radix = 2 * low + 1
    cols = [{}, *({j * radix + low: 1} for j in range(dim)), {}]
    for idx, sign in b.letters:
        col = {k + sign: -c for k, c in cols[idx].items()}
        for j, shift in ((idx - 1, max(sign, 0)), (idx + 1, min(sign, 0))):
            for k, c in cols[j].items():
                k += shift
                c += col.get(k, 0)
                if c:
                    col[k] = c
                else:
                    del col[k]
        cols[idx] = col
    grid = [[{} for _ in range(dim)] for _ in range(dim)]
    for j, col in enumerate(cols[1:-1]):
        for k, c in col.items():
            grid[k // radix][j][k] = c
    layout, zero = ([1], [radix], [low]), LaurentPoly.zero(1)
    return BurauMatrix(b.strands, tuple(
        tuple(unpack(1, layout, terms) if terms else zero for terms in row) for row in grid))


# --------------------------------------------------------------------------
# Mapping torus
# --------------------------------------------------------------------------


def _puncture_images(b: BraidWord, alphabet: tuple[Generator, ...]) -> list[Word]:
    """beta_* of each letter of ``alphabet``, whose first b.strands letters are x_1..x_n.

    Built left to right over the braid letters: (u sigma)_* = u_* o sigma_*,
    so appending sigma_i^±1 rewrites the images u, v of x_i, x_{i+1} alone.
    Letters past the punctures (s) map to themselves.
    """
    images = [Word._adopt(alphabet, ((k, 1),)) for k in range(len(alphabet))]
    for idx, sign in b.letters:
        u, v = images[idx - 1], images[idx]
        if sign > 0:
            images[idx - 1], images[idx] = u * v * u.inverse(), u
        else:
            images[idx - 1], images[idx] = v, v.inverse() * u * v
    return images


def braid_action(b: BraidWord, w: Word) -> Word:
    """Image of w under beta_*; letters act so that (uv)_* = u_* o v_*.

    The first b.strands letters of w's alphabet are the punctures x_1..x_n;
    any later letter (s) is left as it is.
    """
    if len(w.alphabet) < b.strands:
        raise ValueError(
            f"a braid on {b.strands} strands acts on words over at least {b.strands}"
            f" generators, not {len(w.alphabet)}"
        )
    images = _puncture_images(b, w.alphabet)
    out: list[tuple[int, int]] = []
    for k, sign in w.letters:
        out.extend((images[k] if sign > 0 else images[k].inverse()).letters)
    return Word(w.alphabet, out)


def braid_alphabet(n: int) -> tuple[Generator, ...]:
    return make_alphabet([f"x{i}" for i in range(1, n + 1)] + ["s"])


def mapping_torus_presentation(b: BraidWord) -> Presentation:
    """Presentation of the mapping torus: ⟨x_1..x_n, s | s x_i s^-1 = beta_*(x_i)⟩."""
    n = b.strands
    alphabet = braid_alphabet(n)
    relators = tuple(
        Word(alphabet, ((n, 1), (i, 1), (n, -1)) + image.inverse().letters)
        for i, image in enumerate(_puncture_images(b, alphabet)[:n])
    )
    return Presentation(alphabet, relators)


@record
class MappingTorusDelta:
    """det(wI - Burau(beta)) in the homology basis (t', w) of the mapping torus.

    ``n_cycle`` flags whether the determinant formula applies as stated;
    for non-n-cycle braids the value is still returned but should not be
    read as the mapping-torus Alexander polynomial.
    """

    poly: LaurentPoly  # variables: (t', w)
    n_cycle: bool
    substitution: str  # "direct" (t -> t') or "inverse" (t -> t'^{-1})


def mapping_torus_delta(b: BraidWord, t_substitution: str = "direct") -> MappingTorusDelta:
    """Characteristic-polynomial Alexander invariant of the braid mapping torus.

    >>> d = mapping_torus_delta(BraidWord(2, ((1, 1),)))
    >>> from .laurent import poly_to_text
    >>> poly_to_text(d.poly, ("t", "w"))
    't + w'
    """
    if t_substitution not in ("direct", "inverse"):
        raise ValueError("t_substitution must be 'direct' or 'inverse'")
    # wI - B in Z[t^±, w^±] (t = variable 0, w = variable 1), built from B's
    # terms: none has a power of w, so the diagonal's w is a term of its own.
    rows = []
    for i, burau_row in enumerate(burau(b).entries):
        row = []
        for j, entry in enumerate(burau_row):
            terms = {(0, 1): 1} if i == j else {}
            terms.update(((e, 0), -c) for (e,), c in entry.terms.items())
            row.append(LaurentPoly._adopt(2, terms))
        rows.append(row)
    det = poly_matrix_det(rows)
    if t_substitution == "inverse":
        det = exponent_map(det, [[-1, 0], [0, 1]])
    return MappingTorusDelta(det, is_n_cycle(b), t_substitution)


def mapping_torus_delta_fox(b: BraidWord) -> LaurentPoly:
    """Fox-calculus Alexander polynomial of the mapping torus, in basis (t', w).

    Computes the Alexander polynomial of :func:`mapping_torus_presentation`
    and rewrites it in the basis given by the class of x_1 (variable 0)
    and the class of s (variable 1).  Requires the braid to be an
    n-cycle, which is exactly when that pair is a basis of rank-2 homology.
    """
    if not is_n_cycle(b):
        raise ValueError("the mapping-torus comparison needs an n-cycle braid")
    pres = mapping_torus_presentation(b)
    data = alexander.alexander_data(pres)
    ab = data.abelianization
    if ab.rank != 2 or ab.torsion:
        raise InvariantError(
            "mapping-torus homology",
            f"rank {ab.rank} and torsion {ab.torsion}",
            "n-cycle mapping torus must have H_1 = Z^2, "
            f"got rank {ab.rank} and torsion {ab.torsion}",
        )
    x1 = Word(pres.alphabet, [(0, 1)])
    s = Word(pres.alphabet, [(len(pres.alphabet) - 1, 1)])
    c1 = ab.image(x1)
    c2 = ab.image(s)
    det = c1[0] * c2[1] - c1[1] * c2[0]
    if abs(det) != 1:
        raise InvariantError(
            "mapping-torus basis",
            f"classes {c1}, {c2} have determinant {det}",
            f"puncture and suspension classes {c1}, {c2} are not a basis (determinant {det})",
        )
    # Inverse of the column matrix [c1 c2]: det * adjugate, exact over Z.
    inv = [
        [det * c2[1], det * -c2[0]],
        [det * -c1[1], det * c1[0]],
    ]
    return exponent_map(data.polynomial, inv)
