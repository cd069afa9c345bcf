"""Free-group words, finite presentations, and free abelianization.

Words over a named generator alphabet are stored freely reduced at all
times; reduction happens at construction, so every downstream algorithm
(Fox calculus, lattice-path tracing) can assume reducedness.

The free abelianization of a presentation is computed from the Smith
normal form of the relator exponent-sum matrix.  Torsion in the
abelianized group is recorded, but the projection onto the free
quotient Z^b1 is what every other module consumes: the group ring of
the free quotient has no zero divisors, which gcd computations need.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import mul
from typing import Iterable, Iterator, Sequence

from ._record import record
from .errors import InvariantError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@record
class Generator:
    """A named free-group generator."""

    name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"bad generator name {self.name!r}: must be letters/digits/underscore,"
                " starting with a letter"
            )

    def __repr__(self) -> str:
        return f"Generator({self.name!r})"


Alphabet = tuple[Generator, ...]
Letter = tuple[int, int]  # (generator index, sign in {+1, -1})


def make_alphabet(names: str | Sequence[str]) -> Alphabet:
    """Alphabet from a whitespace-separated string or a sequence of names."""
    if isinstance(names, str):
        names = names.split()
    gens = tuple(Generator(n) for n in names)
    seen = set()
    for g in gens:
        if g.name in seen:
            raise ValueError(f"duplicate generator name {g.name!r}")
        seen.add(g.name)
    return gens


class Word:
    """A freely reduced word over a fixed alphabet.

    >>> ab = make_alphabet("a b")
    >>> w = parse_word("a^2 b a^-1", ab)
    >>> str(w)
    'a^2 b a^-1'
    >>> (w * w.inverse()).is_identity()
    True
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        self.alphabet = tuple(alphabet)
        reduced: list[Letter] = []
        for idx, sign in letters:
            if not 0 <= idx < len(self.alphabet):
                raise ValueError(f"generator index {idx} out of range")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be ±1, got {sign}")
            if reduced and reduced[-1] == (idx, -sign):
                reduced.pop()
            else:
                reduced.append((idx, sign))
        self.letters = tuple(reduced)

    @classmethod
    def _adopt(cls, alphabet: Alphabet, letters: tuple[Letter, ...]) -> "Word":
        # Takes ``letters`` as they are, without the checks and reduction of
        # __init__: the caller guarantees a tuple alphabet and a freely reduced
        # tuple of letters (index in range, sign ±1).
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.letters = letters
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.alphabet == other.alphabet and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise ValueError("cannot multiply words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word._adopt(self.alphabet, tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.alphabet, self.letters * k)

    def exponent_vector(self) -> tuple[int, ...]:
        """Signed exponent sum of each generator (image in Z^alphabet)."""
        sums = [0] * len(self.alphabet)
        for idx, sign in self.letters:
            sums[idx] += sign
        return tuple(sums)

    def cyclically_reduced(self) -> "Word":
        """Strip matching inverse letters from the two ends (conjugation), in linear time."""
        letters, n, k = self.letters, len(self.letters), 0
        while n - 2 * k >= 2 and letters[k] == (letters[n - 1 - k][0], -letters[n - 1 - k][1]):
            k += 1
        return Word._adopt(self.alphabet, letters[k:n - k])

    def __str__(self) -> str:
        # A reduced word's runs of one repeated letter are its powers.
        runs = [(self.alphabet[i].name, s * len(list(g))) for (i, s), g in groupby(self.letters)]
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in runs) or "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


# Longest word, in letters before free reduction, that parse_word expands.
# ``a^k`` costs k letters, so without a limit a 12-byte token such as
# ``a^999999999`` would exhaust memory before any other check ran.
MAX_WORD_LETTERS = 1_000_000


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse whitespace-separated tokens ``g``, ``g^-1``, ``g^k`` into a word.

    The result is freely reduced.  ``1`` (or no tokens at all) is the
    identity word.  Unknown generators, malformed or zero exponents, an
    empty alphabet, and words longer than :data:`MAX_WORD_LETTERS`
    letters before reduction are errors.
    """
    if not alphabet:
        raise ValueError("cannot parse a word over an empty alphabet")
    alphabet = tuple(alphabet)
    if text.strip() == "1":
        return Word._adopt(alphabet, ())
    index = {g.name: i for i, g in enumerate(alphabet)}
    # Each distinct token is parsed once, at its first occurrence, so an
    # error names the position where that token first appears.
    parsed: dict[str, tuple[int, int]] = {}
    # Free reduction on whole tokens: a stack of runs, gens[k] ** exps[k],
    # neighbours on different generators, each exponent nonzero.
    gens: list[int] = []
    exps: list[int] = []
    length = 0
    for pos, token in enumerate(text.split()):
        run = parsed.get(token)
        if run is None:
            name, caret, exp_text = token.partition("^")
            if name not in index:
                raise ValueError(f"unknown generator {name!r} in token {pos + 1} ({token!r})")
            if caret:
                try:
                    exp = int(exp_text)
                except ValueError:
                    raise ValueError(
                        f"malformed exponent {exp_text!r} in token {pos + 1} ({token!r})"
                    ) from None
                if exp == 0:
                    raise ValueError(f"zero exponent in token {pos + 1} ({token!r})")
            else:
                exp = 1
            run = parsed[token] = (index[name], exp)
        gen, exp = run
        length += abs(exp)
        if length > MAX_WORD_LETTERS:
            raise ValueError(
                f"word longer than {MAX_WORD_LETTERS} letters at token {pos + 1} ({token!r})"
            )
        if gens and gens[-1] == gen:
            exps[-1] += exp
            if not exps[-1]:
                gens.pop()
                exps.pop()
        else:
            gens.append(gen)
            exps.append(exp)
    signed = [((g, 1), (g, -1)) for g in range(len(alphabet))]
    letters: list[Letter] = []
    for gen, exp in zip(gens, exps):
        letters += [signed[gen][exp < 0]] * abs(exp)
    return Word._adopt(alphabet, tuple(letters))


@record
class Presentation:
    """A finite group presentation: alphabet plus relator words."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        names = [g.name for g in self.alphabet]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for r in self.relators:
            if r.alphabet != self.alphabet:
                raise ValueError("every relator must be a word over the presentation alphabet")

    def __repr__(self) -> str:
        gens = " ".join(g.name for g in self.alphabet)
        rels = ", ".join(str(r) for r in self.relators)
        return f"<Presentation ⟨{gens} | {rels}⟩>"


def presentation(gens: str | Sequence[str], relator_texts: Sequence[str]) -> Presentation:
    """Convenience builder: ``presentation("a b", ["a b a^-1 b^-1"])``."""
    alphabet = make_alphabet(gens)
    return Presentation(alphabet, tuple(parse_word(t, alphabet) for t in relator_texts))


# --------------------------------------------------------------------------
# Smith normal form and free abelianization
# --------------------------------------------------------------------------


def smith_normal_form(
    matrix: Sequence[Sequence[int]], nrows: int, ncols: int
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with explicit unimodular transforms.

    Returns (U, D, V) with U @ matrix @ V == D, U and V unimodular, and
    D diagonal with nonnegative entries d_1 | d_2 | ...  Pivoting always
    picks the smallest nonzero entry in absolute value; fine for the
    desk-scale matrices that arise here.
    """
    d = [[int(matrix[i][j]) for j in range(ncols)] for i in range(nrows)]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        for k in range(ncols):
            d[dst][k] += q * d[src][k]
        for k in range(nrows):
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):  # col_dst += q * col_src
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # Smallest-absolute-value nonzero pivot in the trailing block.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if d[t][t] < 0:
            negate_row(t)
        while True:
            done = True
            for i in range(t + 1, nrows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t]:  # remainder smaller than the pivot: promote it
                        swap_rows(t, i)
                        if d[t][t] < 0:
                            negate_row(t)
                        done = False
            for j in range(t + 1, ncols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        t += 1

    # Enforce the divisibility chain d_i | d_{i+1}.  Merging column i+1
    # into column i makes the block [[a, 0], [b, b]]; a Euclid loop on
    # rows then restores diagonal form with gcd(a, b) in front.  All
    # other entries in the touched rows and columns are zero, so these
    # operations stay inside the 2x2 block.
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            a, b = d[i][i], d[i + 1][i + 1]
            if b == 0 or (a != 0 and b % a == 0):
                continue
            add_col(i + 1, i, 1)
            while d[i + 1][i]:
                q = d[i][i] // d[i + 1][i]
                add_row(i + 1, i, -q)
                swap_rows(i, i + 1)
            if d[i][i] < 0:
                negate_row(i)
            if not d[i][i] or d[i][i + 1] % d[i][i]:
                raise InvariantError(
                    "Smith normal form",
                    f"pivot {d[i][i]} at ({i}, {i}) does not divide "
                    f"the entry {d[i][i + 1]} beside it",
                )
            add_col(i, i + 1, -(d[i][i + 1] // d[i][i]))
            if d[i + 1][i + 1] < 0:
                negate_row(i + 1)
            changed = True
    return u, d, v


@record
class AbelianizationMap:
    """Projection of Z^alphabet onto the free abelianized quotient Z^rank.

    ``matrix`` has one row per free coordinate and one column per
    generator; it annihilates every relator exponent vector.  Invariant
    factors larger than 1 are recorded in ``torsion`` but do not enter
    the projection.
    """

    alphabet: Alphabet
    rank: int
    matrix: tuple[tuple[int, ...], ...]
    torsion: tuple[int, ...]

    def image(self, w: Word) -> tuple[int, ...]:
        if w.alphabet != self.alphabet:
            raise ValueError("word is over a different alphabet")
        return _project(self.matrix, w.exponent_vector())

    def generator_image(self, index: int) -> tuple[int, ...]:
        """Image of a single generator in Z^rank (a column of the matrix)."""
        return tuple(row[index] for row in self.matrix)


def _project(matrix: tuple[tuple[int, ...], ...], e: Sequence[int]) -> tuple[int, ...]:
    """Image of the exponent vector ``e`` under ``matrix``."""
    return tuple(sum(map(mul, row, e)) for row in matrix)


def free_abelianization(p: Presentation) -> AbelianizationMap:
    """Maximal free abelian quotient of the presented group.

    Computes the Smith normal form of the matrix whose columns are the
    relator exponent vectors; the free coordinates of the transformed
    basis give the projection, and nontrivial invariant factors give
    the torsion of the abelianized group.
    """
    g = len(p.alphabet)
    r = len(p.relators)
    cols = [w.exponent_vector() for w in p.relators]
    a = [[cols[j][i] for j in range(r)] for i in range(g)]  # g x r
    u, d, _v = smith_normal_form(a, g, r)
    limit = min(g, r)
    diag = [d[i][i] for i in range(limit)]
    free_rows = [i for i in range(limit) if diag[i] == 0] + list(range(limit, g))
    torsion = tuple(x for x in diag if x > 1)
    matrix = tuple(tuple(u[i]) for i in free_rows)
    m = AbelianizationMap(p.alphabet, len(free_rows), matrix, torsion)
    for k, col in enumerate(cols):
        image = _project(matrix, col)
        if any(image):
            raise InvariantError(
                "free abelianization", f"relator {k} projects to {image}, not to zero"
            )
    return m


# --------------------------------------------------------------------------
# Presentation file format
# --------------------------------------------------------------------------


class ParseError(ValueError):
    """Input error, with the 1-based line number of the text it comes from.

    ``line`` is None for an error no input line causes (an unreadable
    source, an input with no header, a bad option value); the message
    then carries no line prefix.
    """

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@record
class PresentationFile:
    """A parsed presentation file: the presentation plus named auxiliary words."""

    presentation: Presentation
    words: dict[str, Word]


def parse_presentation_text(text: str) -> PresentationFile:
    """Parse the presentation text format.

    One item per line; ``#`` starts a comment.  Lines are
    ``gens: a b``, ``rel: a^2 b ...`` and ``word label: b^-1 a^-1 ...``.
    The ``gens:`` line must come first.
    """
    alphabet: Alphabet | None = None
    relators: list[Word] = []
    named: dict[str, Word] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        try:
            if not colon:
                raise ValueError(f"expected 'key: value', got {line!r}")
            if key == "gens":
                if alphabet is not None:
                    raise ValueError("duplicate gens: line")
                alphabet = make_alphabet(rest)
                if not alphabet:
                    raise ValueError("gens: line declares no generators")
            elif key == "rel":
                if alphabet is None:
                    raise ValueError("rel: before gens:")
                relators.append(parse_word(rest, alphabet))
            elif key == "word" or key.startswith("word "):
                label = key[len("word"):].strip()
                if not label:
                    raise ValueError("word line is missing a label")
                if alphabet is None:
                    raise ValueError("word line before gens:")
                if label in named:
                    raise ValueError(f"duplicate word label {label!r}")
                named[label] = parse_word(rest, alphabet)
            else:
                raise ValueError(f"unknown item {key!r}")
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if alphabet is None:
        raise ParseError(None, "missing gens: line")
    return PresentationFile(Presentation(alphabet, tuple(relators)), named)
