"""Seeded input generators and workload definitions for the normforge benchmark.

Every input the benchmark feeds to ``normforge`` is built here from the
workload seed and written to a file, so the program under test only ever
sees files.  The same seed gives the same files, byte for byte: all
randomness comes from one ``random.Random(seed)`` per workload, and
nothing here depends on the clock, the environment or dictionary order.

Nothing in this module imports ``normforge``: the inputs, and the facts
the oracles later check them against (permutations, Fox derivatives,
closed-form polynomials), are derived independently of the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The bundled two-generator one-relator example (``normforge examples
# section6.pres``), repeated here so that the benchmark writes every input
# file itself.  Its Alexander polynomial is known: a^2*b - a*b - a + 1.
SECTION6 = (
    "gens: a b\n"
    "rel: a^2 b a^-1 b a^2 b a^-1 b^-3 a^-1 b a^2 b a^-1 b a b^-1 a^-2 b^-1 a"
    " b^-1 a^-2 b^-1 a b^3 a b^-1 a^-2 b^-1 a b^-1 a^-1 b\n"
)
SECTION6_DELTA = "a^2*b - a*b - a + 1"


@dataclass(frozen=True)
class Case:
    """One input file and the CLI commands run on it.

    ``commands`` holds argument lists after ``normforge``; the literal
    ``{}`` stands for the input file's path.  ``meta`` carries what the
    oracles need to know about how the input was built.
    """

    name: str
    kind: str  # "braid" | "relator" | "commutator" | "section6" | "link"
    text: str
    commands: tuple[tuple[str, ...], ...]
    meta: dict = field(default_factory=dict, compare=False, hash=False)


# --------------------------------------------------------------------------
# Braids
# --------------------------------------------------------------------------


def cycle_count(n: int, letters: list[int]) -> int:
    """Number of cycles of the permutation a braid word induces on n strands."""
    perm = list(range(n))
    for k in letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def braid_length(n: int, cycles: int, target: int) -> int:
    """The length nearest ``target`` (not below it) with the right parity.

    A word of length L induces a permutation of parity L mod 2, and a
    permutation of n points with c cycles has parity n - c; a rejection
    sampler asked for any other length would never finish.
    """
    return target + (target - (n - cycles)) % 2


def random_braid(rng: random.Random, n: int, length: int, cycles: int) -> list[int]:
    """A freely reduced random braid word whose permutation has ``cycles`` cycles."""
    if n < 2 or not 1 <= cycles <= n:
        raise ValueError(f"no braid on {n} strands has {cycles} cycles to sample")
    if length % 2 != (n - cycles) % 2:
        raise ValueError(f"length {length} has the wrong parity for {cycles} cycles on {n} strands")
    while True:
        letters: list[int] = []
        while len(letters) < length:
            k = rng.randint(1, n - 1) * rng.choice((1, -1))
            if not letters or letters[-1] != -k:
                letters.append(k)
        if cycle_count(n, letters) == cycles:
            return letters


def coxeter_braid(rng: random.Random, n: int) -> list[int]:
    """A freely reduced n-cycle braid word of length n + 1, built without rejection.

    Every product of sigma_1..sigma_{n-1}, each once, in any order and with
    any signs, permutes the strands in one n-cycle; a squared generator
    inserted anywhere leaves the permutation as it is.  (A rejection
    sampler at this length would spend a seed-dependent number of draws.)
    """
    order = list(range(1, n))
    rng.shuffle(order)
    letters = [k * rng.choice((1, -1)) for k in order]
    pos = rng.randrange(len(letters) + 1)
    neighbours = letters[max(pos - 1, 0):pos + 1]
    k = rng.choice([k for k in range(1 - n, n) if k and -k not in neighbours])
    letters[pos:pos] = [k, k]
    return letters


def braid_text(n: int, letters: list[int]) -> str:
    return f"n={n}: " + " ".join(str(k) for k in letters) + "\n"


# Free-group words are lists of (generator index, ±1); x_1..x_n are 0..n-1.


def _reduce_into(out: list[tuple[int, int]], letter: tuple[int, int]) -> None:
    if out and out[-1] == (letter[0], -letter[1]):
        out.pop()
    else:
        out.append(letter)


def braid_image(letters: list[int], i: int) -> list[tuple[int, int]]:
    """beta_*(x_i) on the free group of the punctured disc, freely reduced.

    sigma_j sends x_j -> x_j x_{j+1} x_j^-1 and x_{j+1} -> x_j; the first
    letter of the braid word acts last.
    """
    word = [(i, 1)]
    for k in reversed(letters):
        j = abs(k) - 1
        if k > 0:
            images = {
                (j, 1): [(j, 1), (j + 1, 1), (j, -1)],
                (j, -1): [(j, 1), (j + 1, -1), (j, -1)],
                (j + 1, 1): [(j, 1)],
                (j + 1, -1): [(j, -1)],
            }
        else:
            images = {
                (j, 1): [(j + 1, 1)],
                (j, -1): [(j + 1, -1)],
                (j + 1, 1): [(j + 1, -1), (j, 1), (j + 1, 1)],
                (j + 1, -1): [(j + 1, -1), (j, -1), (j + 1, 1)],
            }
        out: list[tuple[int, int]] = []
        for letter in word:
            for image_letter in images.get(letter, [letter]):
                _reduce_into(out, image_letter)
        word = out
    return word


def word_text(names: list[str], word: list[tuple[int, int]]) -> str:
    """Render a word with runs collapsed into powers: ``a^3 b^-1 a``."""
    tokens = []
    k = 0
    while k < len(word):
        idx, sign = word[k]
        run = 1
        while k + run < len(word) and word[k + run] == (idx, sign):
            run += 1
        exp = sign * run
        tokens.append(names[idx] if exp == 1 else f"{names[idx]}^{exp}")
        k += run
    return " ".join(tokens) if tokens else "1"


def mapping_torus_text(n: int, letters: list[int]) -> str:
    """Presentation <x_1..x_n, s | s x_i s^-1 beta_*(x_i)^-1> in the file format."""
    names = [f"x{i}" for i in range(1, n + 1)] + ["s"]
    s = n
    lines = ["gens: " + " ".join(names)]
    for i in range(n):
        rel: list[tuple[int, int]] = []
        inverse_image = [(idx, -sign) for idx, sign in reversed(braid_image(letters, i))]
        for letter in [(s, 1), (i, 1), (s, -1)] + inverse_image:
            _reduce_into(rel, letter)
        lines.append("rel: " + word_text(names, rel))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Two-generator relators
# --------------------------------------------------------------------------


def fox(word: list[tuple[int, int]], target: int) -> dict[tuple[int, int], int]:
    """Abelianized Fox derivative d(word)/d(target) over Z[a^±1, b^±1], (a, b) = (0, 1)."""
    pos = [0, 0]
    out: dict[tuple[int, int], int] = {}
    for idx, sign in word:
        if sign < 0:
            pos[idx] -= 1
        if idx == target:
            key = (pos[0], pos[1])
            s = out.get(key, 0) + sign
            if s:
                out[key] = s
            else:
                del out[key]
        if sign > 0:
            pos[idx] += 1
    return out


def random_closed_relator(rng: random.Random, length: int) -> list[tuple[int, int]]:
    """A cyclically reduced word in [F_2, F_2] of about ``length`` letters.

    Shuffles twice the target number of letters with zero exponent sums
    and reduces freely and cyclically; the reduced length of such a walk
    on F_2 is about half the shuffled length.  Words whose Fox derivative
    vanishes (degenerate Alexander polynomial) are drawn again.
    """
    while True:
        na = rng.randint(length // 4, 3 * length // 4)
        nb = length - na
        pool = [(0, 1), (0, -1)] * na + [(1, 1), (1, -1)] * nb
        rng.shuffle(pool)
        word: list[tuple[int, int]] = []
        for letter in pool:
            _reduce_into(word, letter)
        while len(word) >= 2 and word[0] == (word[-1][0], -word[-1][1]):
            word = word[1:-1]
        if word and fox(word, 0):
            return word


def relator_text(word: list[tuple[int, int]]) -> str:
    return "gens: a b\nrel: " + word_text(["a", "b"], word) + "\n"


def commutator_text(k: int) -> str:
    return f"gens: a b\nrel: a^{k} b a^-{k} b^-1\n"


def geometric_series_text(k: int) -> str:
    """1 + a + ... + a^(k-1) in normforge's canonical descending form."""
    terms = [f"a^{e}" for e in range(k - 1, 1, -1)] + (["a"] if k >= 2 else []) + ["1"]
    return " + ".join(terms)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

BRAID_COMMANDS = (
    ("burau", "{}"),
    ("mapping-torus", "{}"),
    ("mapping-torus", "--cross-check", "{}"),
)
RELATOR_COMMANDS = (
    ("alexander", "{}"),
    ("check", "{}"),
    ("norm-ball", "{}"),
    ("sigma-a", "{}"),
    ("sigma-brown", "{}"),
    ("compare-question-b", "{}"),
)
LINK_COMMANDS = (
    ("alexander", "{}"),
    ("norm-ball", "{}"),
    ("check", "{}"),
    ("norm", "--phi", "1,0,0", "{}"),
    ("norm", "--phi", "1,-1,2", "{}"),
)
# Every workload runs these few small bundled-input commands as well, so
# that every layer does some work, and therefore reports a measured time,
# on every workload, including the ones that serve as its control.
SECTION6_TOUCH = (
    ("check", "{}"),
    ("norm-ball", "{}"),
    ("sigma-a", "{}"),
    ("compare-question-b", "{}"),
)
BRAID_TOUCH = (("mapping-torus", "--cross-check", "{}"),)


def _gamma(n: int, commands=BRAID_COMMANDS) -> Case:
    letters = list(range(1, n))
    return Case(f"gamma_{n}.braid", "braid", braid_text(n, letters), commands,
                {"n": n, "letters": letters})


def _section6(commands=RELATOR_COMMANDS) -> Case:
    return Case("section6.pres", "section6", SECTION6, commands)


def _braid_case(name: str, n: int, letters: list[int]) -> Case:
    return Case(name, "braid", braid_text(n, letters), BRAID_COMMANDS, {"n": n, "letters": letters})


def _link(rng, name: str, n: int, length: int) -> Case:
    letters = random_braid(rng, n, braid_length(n, 2, length), 2)
    return Case(name, "link", mapping_torus_text(n, letters), LINK_COMMANDS)


def _with(case: Case, *commands) -> Case:
    return Case(case.name, case.kind, case.text, case.commands + commands, case.meta)


# Each workload mixes inputs drawn from the seed with a few "anchor" inputs
# drawn from a fixed stream, the same for every seed.  Costs of random
# braids and link presentations are heavy-tailed (one n = 8 braid may take
# ten times another), so a workload made only of seeded draws would swing
# by tens of percent from seed to seed; the anchors carry the bulk of each
# workload's characteristic load at a steady cost, while the seeded inputs
# vary the rest.  a^k b a^-k b^-1 costs about the same for nearby k, so
# those k are seeded within one percent of a fixed size.
#
# Anchors are (n, i): the first draw of the stream "<workload>/anchor/n/i".
# The streams used were picked so that each anchor's commands take one to
# two seconds on one 2.1 GHz x86-64 core; some other draws at the same n
# take ten times longer and would not fit a run.
ANCHOR_BRAIDS = ((8, 2), (9, 0))
ANCHOR_LINKS = ((6, 2), (7, 2))
COMMUTATOR_SIZES = (1000, 4000)


def braid_torus(seed: int) -> list[Case]:
    """Bundled gamma_2..gamma_5, seeded n-cycle braids for n = 5..10, anchors at n = 8, 9.

    The seeded braids have length n + 1; random words of length about 3n
    cost from 0.1 s to over 30 s each in the Fox cross-check at n = 9, 10.
    """
    rng = random.Random(f"braid-torus/{seed}")
    cases = [_gamma(n) for n in range(2, 6)]
    cases[-1] = _with(cases[-1], ("mapping-torus", "--cross-check", "--format", "json", "{}"))
    cases += [_braid_case(f"cycle_n{n}.braid", n, coxeter_braid(rng, n)) for n in range(5, 11)]
    cases += [_braid_case(f"anchor_n{n}_{i}.braid", n, random_braid(
                  random.Random(f"braid-torus/anchor/{n}/{i}"), n, braid_length(n, 1, 3 * n), 1))
              for n, i in ANCHOR_BRAIDS]
    cases.append(_section6(SECTION6_TOUCH))
    return cases


def relator_2gen(seed: int) -> list[Case]:
    """section6, closed relators of length 10^2..10^4, and a^k b a^-k b^-1."""
    rng = random.Random(f"relator-2gen/{seed}")
    cases = [_section6(RELATOR_COMMANDS + (("alexander", "--format", "json", "{}"),))]
    for length in (100, 300, 1000):
        word = random_closed_relator(rng, length)
        cases.append(Case(f"relator_{length}.pres", "relator", relator_text(word), RELATOR_COMMANDS))
    word = random_closed_relator(random.Random("relator-2gen/anchor/10000/0"), 10000)
    cases.append(Case("anchor_relator_10000.pres", "relator", relator_text(word), RELATOR_COMMANDS))
    for size in COMMUTATOR_SIZES:
        k = size + rng.randrange(size // 100)
        cases.append(Case(f"commutator_{size}.pres", "commutator", commutator_text(k),
                          RELATOR_COMMANDS, {"k": k}))
    cases.append(_gamma(3, BRAID_TOUCH))
    return cases


def link_rank3(seed: int) -> list[Case]:
    """Mapping tori of braids whose permutation has two cycles: a link plus its axis."""
    rng = random.Random(f"link-rank3/{seed}")
    cases = [_link(rng, f"link_n{n}_{i}.pres", n, 2 * n) for n in (3, 4) for i in range(2)]
    cases[0] = _with(cases[0], ("alexander", "--format", "json", "{}"))
    cases += [_link(random.Random(f"link-rank3/anchor/{n}/{i}"), f"anchor_link_n{n}_{i}.pres", n, 3 * n)
              for n, i in ANCHOR_LINKS]
    cases.append(_section6(SECTION6_TOUCH))
    cases.append(_gamma(3, BRAID_TOUCH))
    return cases


WORKLOADS = {
    "braid-torus": braid_torus,
    "relator-2gen": relator_2gen,
    "link-rank3": link_rank3,
}
