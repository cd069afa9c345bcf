"""Exact multivariate Laurent polynomial arithmetic over the integers.

This module implements the ring Z[x_1^{±1}, ..., x_n^{±1}]: addition,
multiplication, exact division, greatest common divisors, substitution,
and comparison up to multiplication by a unit.  Everything is exact
integer arithmetic; no floating point is used anywhere.

A polynomial is stored as a map from exponent vectors (tuples of ints,
negative entries allowed) to nonzero integer coefficients.  The
canonical printed form lists terms in descending lexicographic order of
exponent vectors, e.g. ``a^2*b - a*b - a + 1``.

Arithmetic on the term dicts has two kernels: ``_dict_add`` is the one
addition loop, and ``_dict_mul`` multiply-accumulates a signed product
into a dict it is handed (products and long division).
``LaurentPoly(nvars, terms)`` checks and copies caller terms; every
result built here from valid terms is taken by ``_adopt`` as is.

Exponent vectors can be packed into int keys (Kronecker substitution):
each variable is one digit of a mixed-radix key, and :func:`unpack` is
the one decoder of such keys, for determinants, the Fox rows of
:mod:`.alexander` and :func:`binomial_quotient` alike.

Determinants of n x n matrices, n >= 2, shift each row by the unit
x^-low, low its per-variable minimum exponent, so all exponents are
>= 0, and give each variable a radix above its summed row ranges.  A
minor's exponents never exceed that bound, so digits never carry and a
product's key is the sum of its factors' keys.  One memoised Laplace
expansion computes the minors, keyed by column bitmask, in one of two
stores.  Where the minors are likely to fill their key range, each is
one big int holding a coefficient digit per key, so entry x minor is a
shift and an add per entry term; otherwise each is a dict from key to
coefficient, multiply-accumulated.  The result is decoded once (see
:func:`poly_matrix_det`).

The units of this ring are exactly the signed monomials ±x^v.
Quantities that are only well defined up to a unit (gcds, Alexander
polynomials) are normalized by shifting exponents so that each
variable's minimum exponent is 0 (``_to_origin``, the one such shift)
and then making the leading (lex-largest) coefficient positive;
:func:`split_unit` also returns the unit it removed.

Exact division by a unit binomial ±x^a (x^v - 1), the divisor of the
deficiency-one Alexander polynomial, is :func:`binomial_quotient`: one
sort and one scan on int keys.  The dividend is a LaurentPoly, packed
there, or int keys handed in with their layout (the packed Fox row of
:mod:`.alexander`).  Each key is turned into one that orders the terms by
lattice line e + Zv and then by position along the line.  The quotient is
minus the running sum of the dividend along each line, written into every
gap up to the next key, and exists iff every line sums to zero.  Each
quotient term is then decoded once, shifted to the origin with the
lex-leading sign moved into the unit, so the scan returns what
:func:`split_unit` would of the quotient; :func:`divide_exact` multiplies
that unit back.  Every other divisor takes plain leading-term long
division, one ``_dict_mul`` per quotient term.

The gcd is the heuristic GCDHEU (Char, Geddes and Gonnet, J. Symbolic
Comput. 7, 1989) on polynomials shifted to the origin.  Each input's
integer content is set aside, the last variable is evaluated at an
integer xi = 2 min(|p|, |q|) + 2 (max-norms of the primitive parts), and
the gcd of the two images, found the same way down to an integer gcd, is
lifted back by its symmetric xi-adic digits.  The primitive part of the
lift is the gcd if it divides both inputs exactly; otherwise xi grows
and the step repeats.  So every result carries a division certificate.
An inner level returns its gcd with the integer content, which encodes
the evaluated variable.
"""

from __future__ import annotations

import re
import sys
from itertools import accumulate, repeat
from math import gcd as _igcd
from math import prod
from operator import add, mul, sub
from typing import Mapping, Sequence

Exponents = tuple[int, ...]
Terms = dict[Exponents, int]
Layout = tuple[Sequence[int], Sequence[int], Sequence[int]]  # strides, radices, offsets: see unpack


class LaurentPoly:
    """An element of Z[x_1^±1, ..., x_n^±1].

    Instances are immutable by convention: no method mutates ``terms``
    after construction, so values can be shared freely across threads.

    >>> a = LaurentPoly.variable(2, 0)
    >>> b = LaurentPoly.variable(2, 1)
    >>> print(poly_to_text((a + 1) * (a - 1), ("a", "b")))
    a^2 - 1
    >>> (a * b) * unit_inverse(a * b) == 1
    True
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        clean: Terms = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps!r} has length {len(exps)}, expected {nvars}"
                    )
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _adopt(cls, nvars: int, terms: Terms) -> "LaurentPoly":
        # Takes ``terms`` as they are, without the copy and checks of __init__:
        # the caller guarantees tuple keys of length nvars, nonzero coefficients,
        # and that it keeps no other reference to the dict.
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # --- constructors ---

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls.monomial(nvars, exps)

    # --- predicates and views ---

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """True iff this is ±x^v (the units of the Laurent ring)."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def leading(self) -> tuple[Exponents, int]:
        """The lex-largest term, as (exponents, coefficient)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def min_exponents(self) -> Exponents:
        """Per-variable minimum exponent over the support (p must be nonzero)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no exponent range")
        return tuple(map(min, zip(*self.terms)))

    def augmentation(self) -> int:
        """Image under the ring map sending every variable to 1 (sum of coefficients)."""
        return sum(self.terms.values())

    def shifted(self, delta: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial x^delta."""
        d = tuple(delta)
        if len(d) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return LaurentPoly._adopt(
            self.nvars, {tuple(map(add, e, d)): c for e, c in self.terms.items()}
        )

    # --- ring structure ---

    def _coerce(self, other: object) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.nvars, other)
        return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._adopt(self.nvars, {e: -c for e, c in self.terms.items()})

    def _add(self, other: "LaurentPoly | int", sign: int) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._adopt(self.nvars, _dict_add(self.terms, o.terms, sign))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self._add(other, -1)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return (-self)._add(other, 1)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly._adopt(self.nvars, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._adopt(self.nvars, _dict_mul(self.terms, o.terms, {}))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if self.is_unit():
                return unit_inverse(self) ** (-k)
            raise ValueError("negative powers exist only for unit monomials")
        result = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, {poly_to_text(self, _default_names(self.nvars))!r})"


def _default_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


# --------------------------------------------------------------------------
# Unit handling
# --------------------------------------------------------------------------


def unit_inverse(u: LaurentPoly) -> LaurentPoly:
    """Inverse of a unit ±x^v."""
    if not u.is_unit():
        raise ValueError("not a unit of the Laurent ring")
    return invert_variables(u)


def _to_origin(p: LaurentPoly) -> tuple[Terms, Exponents]:
    # p's terms times x^-m, where m is p's per-variable minimum exponent, and m.
    m = p.min_exponents()
    return {tuple(map(sub, e, m)): c for e, c in p.terms.items()}, m


def split_unit(p: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """``(normalize_unit(p), u)`` with u a unit and p = u * normalize_unit(p); u = 1 for p = 0.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> n, u = split_unit(-a**-1 * b + a**-1)
    >>> print(poly_to_text(n, ("a", "b")), "|", poly_to_text(u, ("a", "b")))
    b - 1 | -a^-1
    """
    if p.is_zero():
        return p, LaurentPoly.one(p.nvars)
    return _signed(p.nvars, *_to_origin(p))


def _signed(nvars: int, terms: Terms, m: Exponents) -> tuple[LaurentPoly, LaurentPoly]:
    # (terms with a positive lex-leading coefficient, the unit ±x^m): split_unit's last step.
    sign = 1 if terms[max(terms)] > 0 else -1
    if sign < 0:
        terms = {e: -c for e, c in terms.items()}
    return LaurentPoly._adopt(nvars, terms), LaurentPoly._adopt(nvars, {m: sign})


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of p's unit class.

    Exponents are shifted so each variable's minimum exponent is 0, then
    the sign is fixed so the lex-leading coefficient is positive.  Every
    nonzero polynomial has exactly one normalized associate, which makes
    golden values deterministic.
    """
    return split_unit(p)[0]


def unit_quotient(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """The unit u with q = u * p, or None if p and q are not associates.

    Both zero counts as associate (witness 1); zero vs nonzero does not.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    if p.is_zero() or q.is_zero():
        return LaurentPoly.one(p.nvars) if p.is_zero() and q.is_zero() else None
    (ep, cp), (eq, cq) = p.leading(), q.leading()
    if abs(cq) != abs(cp):
        return None
    candidate = LaurentPoly._adopt(p.nvars, {tuple(map(sub, eq, ep)): cq // cp})
    return candidate if candidate * p == q else None


def equal_up_to_unit(p: LaurentPoly, q: LaurentPoly) -> bool:
    return unit_quotient(p, q) is not None


# --------------------------------------------------------------------------
# Term-dict kernels
# --------------------------------------------------------------------------


def _dict_add(a: Terms, b: Terms, sign: int) -> Terms:
    # a + sign * b as a new dict; a sum that cancels always has a term to delete.
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _dict_mul(a: Terms, b: Terms, out: Terms, sign: int = 1) -> Terms:
    # out += sign * a * b in place, and returns out; out must be neither a nor b.
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def unpack(nvars: int, layout: Layout, terms: dict[int, int]) -> LaurentPoly:
    """The polynomial with ``terms`` on packed int keys, zero coefficients dropped.

    With ``layout`` = (strides, radices, offsets), exponent j of the term
    on key k is k // strides[j] % radices[j] - offsets[j].
    """
    if not terms:  # most entries of a long presentation's Fox rows
        return LaurentPoly._adopt(nvars, {})
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    digits = [[k // s % r - o for k in terms] for s, r, o in zip(*layout)]
    vectors = zip(*digits) if digits else [()] * len(terms)
    return LaurentPoly._adopt(nvars, dict(zip(vectors, terms.values())))


# --------------------------------------------------------------------------
# Exact division
# --------------------------------------------------------------------------


def _dict_div_exact(num: Terms, den: Terms) -> Terms | None:
    # Long division by a single divisor in Z[x_1..x_n] with lex order.
    # In an integral domain the leading term of a product is the product
    # of leading terms, so if den divides num exactly this always succeeds.
    d_exp = max(den)
    d_coeff = den[d_exp]
    rem = dict(num)
    quo: Terms = {}
    while rem:
        r_exp = max(rem)
        diff = tuple(map(sub, r_exp, d_exp))
        t, r = divmod(rem[r_exp], d_coeff)
        if r or any(x < 0 for x in diff):
            return None
        quo[diff] = t
        _dict_mul({diff: t}, den, rem, -1)
    return quo


def _unit_binomial(d: Terms) -> tuple[Exponents, Exponents] | None:
    # (a, v) with d = x^a (x^v - 1), if d is ±x^a (x^v - 1) for some a and v != 0.
    if len(d) != 2:
        return None
    (e1, c1), (e2, c2) = d.items()
    if c1 + c2 or abs(c1) != 1:
        return None
    top, a = (e1, e2) if c1 == 1 else (e2, e1)
    return a, tuple([x - y for x, y in zip(top, a)])


def binomial_quotient(
    p: LaurentPoly | dict[int, int], v: Exponents, layout: Layout | None = None
) -> tuple[LaurentPoly, LaurentPoly] | None:
    """``split_unit(p / (x^v - 1))`` for v != 0, or None if x^v - 1 does not divide p.

    ``p`` is a LaurentPoly, packed here, or int keys to coefficients (zeros
    allowed) with the ``layout`` that decodes them (see :func:`unpack`),
    all digits in range.  The layout must hold each point between two of
    p's points on a line e + Zv, and pack the starts e - kv of p's lines
    without a carry (every axis v does, on keys whose digits stay in range).
    One sort and one scan: on each line p = (x^v - 1) q reads
    p_e = q_{e-v} - q_e, so q_e is minus the running sum of p along the
    line, and q exists iff every line sums to zero.  e lies k = e_i // v_i
    steps of v (i the first index with v_i != 0) beyond the start e - kv,
    so the int key (key(e) - k step) * W + k, with step the key of v and
    W = 2 span + 1 for span the range of k, sorts the terms line by line.
    One step of v adds 1 to it, and two lines' keys lie more than span
    apart.  Each gap between two keys of one line takes the running sum,
    and a wider gap after a nonzero sum is a line that does not sum to
    zero.  Each quotient term is decoded once, shifted to the origin with
    the lex-leading sign taken into the unit.
    """
    if not any(p.terms.values() if layout is None else p.values()):
        return LaurentPoly.zero(len(v)), LaurentPoly.one(len(v))
    i = next(j for j, x in enumerate(v) if x)
    if layout is None:  # radix j above p's range plus |v_j| times the range of k
        columns = list(zip(*p.terms))
        lows = list(map(min, columns))
        span = abs(max(columns[i]) // v[i] - lows[i] // v[i])
        radices = [max(column) - low + abs(y) * span + 1 for column, low, y in zip(columns, lows, v)]
        strides = list(accumulate(radices[:-1], mul, initial=1))
        keys = repeat(-sum(map(mul, lows, strides)))
        for column, stride in zip(columns, strides):
            keys = map(add, keys, map(mul, column, repeat(stride)))
        p, layout = dict(zip(keys, p.terms.values())), (strides, radices, [-low for low in lows])
    strides, radices, offsets = layout
    stride, radix, offset, vi = strides[i], radices[i], offsets[i], v[i]
    ks = [(key // stride % radix - offset) // vi for key in p]
    span = max(ks) - min(ks)
    width = 2 * span + 1
    step = sum(map(mul, v, strides))
    keys = map(sub, map(mul, p, repeat(width)), map(mul, ks, repeat(step * width - 1)))
    keyed = dict(zip(keys, p.items()))
    quo: dict[int, int] = {}
    s = 0
    for key in sorted(keyed):
        if s:
            gap = key - last
            if gap > span:
                return None
            for e in range(e, e + gap * step, step):
                quo[e] = s
        e, c = keyed[key]
        s -= c
        last = key
    if s:
        return None
    columns = [[key // stride % radix for key in quo] for stride, radix in zip(strides, radices)]
    lows = list(map(min, columns))
    exps = zip(*[map(sub, column, repeat(low)) for column, low in zip(columns, lows)])
    return _signed(len(v), dict(zip(exps, quo.values())), tuple(map(sub, lows, offsets)))


def divide_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """The exact quotient p / d in the Laurent ring, or None if d does not divide p.

    The quotient is unique when it exists (the ring is a domain).  A unit
    binomial ±x^a (x^v - 1) divides line by line along e + Zv through
    :func:`binomial_quotient`, whose unit, times x^-a, is multiplied back;
    every other divisor takes leading-term long division.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> q = divide_exact(a**2 * b - a * b - a + 1, a - 1)
    >>> q == a * b - 1
    True
    >>> divide_exact(a + 1, b + 1) is None
    True
    """
    if p.nvars != d.nvars:
        raise ValueError("variable count mismatch")
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    binomial = _unit_binomial(d.terms)
    if binomial is not None:
        found = binomial_quotient(p, binomial[1])
        return None if found is None else found[1].shifted([-x for x in binomial[0]]) * found[0]
    # Shift both to ordinary polynomials with per-variable min exponent 0;
    # exactness is unaffected because monomials are units.
    num, mp = _to_origin(p)
    den, md = _to_origin(d)
    quo = _dict_div_exact(num, den)
    if quo is None:
        return None
    return LaurentPoly._adopt(p.nvars, quo).shifted(tuple(map(sub, mp, md)))


# --------------------------------------------------------------------------
# Gcd by evaluation and lifting (GCDHEU)
# --------------------------------------------------------------------------


def _evaluate_last(terms: Terms, xi: int) -> Terms:
    # terms with the last variable set to xi, in the remaining variables.
    out: Terms = {}
    for e, c in terms.items():
        out[e[:-1]] = out.get(e[:-1], 0) + c * xi ** e[-1]
    return {e: c for e, c in out.items() if c}


def _poly_gcd(p: Terms, q: Terms, nvars: int) -> Terms:
    """Gcd of ordinary (nonnegative-exponent) polynomials up to sign, integer content included."""
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    cp, cq = _igcd(*p.values()), _igcd(*q.values())
    content = _igcd(cp, cq)
    if nvars == 0:
        return {(): content}
    p = {e: c // cp for e, c in p.items()}
    q = {e: c // cq for e, c in q.items()}
    xi = 2 * min(max(map(abs, p.values())), max(map(abs, q.values()))) + 2
    # A given xi fails only if the cofactors' specialisations share a factor; finitely many do.
    while True:
        h = _poly_gcd(_evaluate_last(p, xi), _evaluate_last(q, xi), nvars - 1)
        g: Terms = {}  # h's coefficients in symmetric base xi are g's along the last variable
        for e, c in h.items():
            i = 0
            while c:
                d = c % xi
                if d > xi // 2:
                    d -= xi
                if d:
                    g[e + (i,)] = d
                c = (c - d) // xi
                i += 1
        cg = _igcd(*g.values())
        g = {e: c // cg for e, c in g.items()}
        if _dict_div_exact(p, g) is not None and _dict_div_exact(q, g) is not None:
            return {e: c * content for e, c in g.items()}
        xi = xi * 73794 // 27011


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """A greatest common divisor in Z[x^±1], unit-normalized.

    Monomial factors are units here, so they never appear in the result:
    gcd(2ab, 4a^2) is the constant 2.  The result, found by evaluation and
    lifting (GCDHEU), is returned only once it divides p and q exactly.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> gcd(2 * a * b, 4 * a**2) == 2
    True
    """
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    g = _poly_gcd(*[_to_origin(x)[0] if x else {} for x in (p, q)], p.nvars)
    return normalize_unit(LaurentPoly._adopt(p.nvars, g))


def gcd_many(polys: Sequence[LaurentPoly]) -> LaurentPoly:
    """Gcd of a nonempty family, ignoring zero entries; all zero is an error."""
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        raise ValueError("gcd of an all-zero family is undefined")
    g = normalize_unit(nonzero[0])
    for p in nonzero[1:]:
        if g == 1:
            break
        g = gcd(g, p)
    return g


# --------------------------------------------------------------------------
# Substitution
# --------------------------------------------------------------------------


def substitute(p: LaurentPoly, images: Sequence[LaurentPoly]) -> LaurentPoly:
    """Apply the ring homomorphism x_i -> images[i].

    Every image must live in one common target ring.  An image must be a
    unit (±monomial) whenever the corresponding variable occurs with a
    negative exponent in p.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> p = a**2 * b - a * b - a + 1
    >>> substitute(p, [LaurentPoly.one(2), LaurentPoly.one(2)]).augmentation()
    0
    """
    if len(images) != p.nvars:
        raise ValueError(f"expected {p.nvars} images, got {len(images)}")
    target = images[0].nvars if images else 0
    if any(im.nvars != target for im in images):
        raise ValueError("images live in different rings")
    result = LaurentPoly.zero(target)
    for e, c in p.terms.items():
        term = c
        for k, (im, ek) in enumerate(zip(images, e)):
            if ek < 0 and not im.is_unit():
                raise ValueError(
                    f"variable {k} occurs with negative exponent but its image is not a unit"
                )
            term = term * im**ek
        result = result + term
    return result


def invert_variables(p: LaurentPoly) -> LaurentPoly:
    """Substitute x_i -> x_i^{-1} for every variable."""
    return LaurentPoly._adopt(p.nvars, {tuple(-x for x in e): c for e, c in p.terms.items()})


def exponent_map(p: LaurentPoly, matrix: Sequence[Sequence[int]]) -> LaurentPoly:
    """Monomial change of variables given by an integer matrix.

    Each exponent vector e is replaced by matrix @ e; the matrix has one
    row per target variable and one column per source variable.
    """
    rows = [tuple(r) for r in matrix]
    if any(len(r) != p.nvars for r in rows):
        raise ValueError("matrix column count must equal the variable count")
    target = len(rows)
    out: Terms = {}
    for e, c in p.terms.items():
        key = tuple(sum(r[j] * e[j] for j in range(p.nvars)) for r in rows)
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return LaurentPoly._adopt(target, out)


# --------------------------------------------------------------------------
# Determinants of polynomial matrices
# --------------------------------------------------------------------------


# A dense minor is one int of at most this many bits (512 KiB); the memo
# holds up to one per column subset, so wider matrices take the dict store.
_DENSE_MAX_BITS = 1 << 22


def poly_matrix_det(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square matrix of Laurent polynomials.

    Determinants by cofactor expansion with memoised minors: Laplace
    expansion along successive rows, where the minor on rows ``r..n-1``
    and a column subset is computed once, keyed by that subset as a
    bitmask (its popcount fixes ``r``).  Zero entries and zero minors are
    skipped.  The cost is bounded by the number of column subsets reached,
    at most ``n * 2^n`` and far fewer on sparse matrices, instead of
    ``n!``.  An all-zero row returns 0; n = 1 returns the entry itself,
    since values are immutable.

    For n >= 2 exponents are packed into int keys (Kronecker substitution).
    Row r is first multiplied by the unit x^-low_r, low_r its per-variable
    minimum exponent, so every shifted exponent is >= 0.  A monomial of a
    minor on rows r..n-1 is a sum of one shifted monomial per row, so its
    exponent of variable i lies in [0, span_i], where span_i sums
    (row max - row min) of variable i over all rows.  Variable i is the
    digit of radix span_i + 1 in a mixed-radix key, so digits never carry,
    a product's key is the sum of its factors' keys, and every key is below
    ``slots``, the product of the radices.  The determinant is decoded
    once by :func:`unpack`, with offsets that multiply it back by
    x^(sum of low_r).

    One expansion (:func:`_expand`) serves two minor stores; only the
    one-column minors and the step entry x sub-minor differ.  The dict
    store keeps a minor as a dict from key to coefficient and
    multiply-accumulates each signed product into it.  The dense store
    keeps a minor as one int, the sum of c * 2^(b * key) over its terms,
    so a product is one shift and one add or subtract per entry term,
    with a multiply only for a coefficient other than +-1.  Every
    coefficient of a minor on rows r..n-1 is a signed sum of products of
    one entry coefficient per row of those rows, so in absolute value it
    is at most the product of their row norms sum_j ||a_rj||_1.  Every
    row norm is >= 1 (an all-zero row returned above), so B = the product
    of all n row norms bounds every minor, and a digit width b, a
    multiple of 8 with b >= bitlen(B) + 1 (8, 16, 32 or 64 up to 64
    bits), holds each coefficient as a digit below 2^(b-1) in absolute
    value.  So the int is 0 exactly when its minor is, and its digits can
    be read back without carries.  The determinant's int is read into a
    dict once (:func:`_dense_digits`): adding the constant with digit
    2^(b-1) in every slot makes each digit c + 2^(b-1), and XOR with the
    same constant turns that into c in b-bit two's complement, read from
    ``to_bytes`` through a signed ``memoryview.cast`` (b <= 64 on a
    little-endian machine) or by ``int.from_bytes`` per slot.

    The dense int costs its full width whether or not a slot is used, so
    the dense store is taken only where the minors are likely to fill it
    (:func:`_goes_dense`): the rows average at least 4 terms, the product
    of the rows' term counts (a bound on the determinant's term count) is
    at least ``slots``, and b * slots is at most ``_DENSE_MAX_BITS``.
    Matrices with about 2 terms per row (Burau matrices), wide exponents
    or few rows over a large exponent box take the dict store.

    >>> a = LaurentPoly.variable(1, 0)
    >>> print(poly_to_text(poly_matrix_det([[a, a], [a + 1, a]]), ("a",)))
    -a
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no well-defined ring; use elementary-ideal conventions")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    nvars = rows[0][0].nvars
    if any(e.nvars != nvars for r in rows for e in r):
        raise ValueError("variable count mismatch")
    if n == 1:
        return rows[0][0]
    mat = [[e.terms for e in r] for r in rows]
    if not all(any(row) for row in mat):
        # An all-zero row has no exponent range to shift by; its det is 0.
        return LaurentPoly.zero(nvars)

    # Per row: the shift low_r, the term count and the coefficient 1-norm.
    lows = []
    spans = [0] * nvars
    counts = []
    bound = 1
    for row in mat:
        exps = [e for entry in row for e in entry]
        columns = list(zip(*exps))
        low = [min(c) for c in columns]
        lows.append(low)
        spans = [s + max(c) - m for s, c, m in zip(spans, columns, low)]
        counts.append(len(exps))
        bound *= sum([abs(c) for entry in row for c in entry.values()])
    strides = [1]
    for s in spans:
        strides.append(strides[-1] * (s + 1))
    slots = strides.pop()
    need = bound.bit_length() + 1
    bits = max(8, 1 << (need - 1).bit_length()) if need <= 64 else -(-need // 8) * 8
    dense = _goes_dense(counts, slots, bits)
    # Entries become lists of (key, coefficient); a dense key is a bit offset, key * bits.
    scale = [s * bits for s in strides] if dense else strides
    packed = [
        [[(sum(map(mul, e, scale)) - origin, c) for e, c in entry.items()] for entry in row]
        for row, origin in zip(mat, [sum(map(mul, low, scale)) for low in lows])
    ]
    det = _expand(packed, dense)
    if dense:
        det = _dense_digits(det, slots, bits)
    # Variable i's exponent: digit i of the key, shifted back by the rows' summed lows.
    return unpack(nvars, (strides, [s + 1 for s in spans], [-sum(c) for c in zip(*lows)]), det)


def _goes_dense(counts: list[int], slots: int, bits: int) -> bool:
    """Whether the minors take the dense store, from the rows' term counts and the int's size."""
    return sum(counts) >= 4 * len(counts) and prod(counts) >= slots and bits * slots <= _DENSE_MAX_BITS


def _expand(packed: list[list[list[tuple[int, int]]]], dense: bool) -> dict[int, int] | int:
    """The memoised Laplace expansion of ``packed``, in the dense or the dict store.

    Expanding a minor along its first row, the entry in column j has sign
    (-1)^(number of the minor's columns left of j).
    """
    rows = [[(1 << j, (1 << j) - 1, entry) for j, entry in enumerate(row) if entry] for row in packed]
    # Memo by column bitmask; the one-column minors are the last row's entries.
    minors = {1 << j: sum([c << s for s, c in entry]) if dense else dict(entry)
              for j, entry in enumerate(packed[-1])}

    def minor(mask: int, r: int) -> dict[int, int] | int:
        total = 0 if dense else {}
        for bit, left, entry in rows[r]:
            if mask & bit:
                below = minors.get(mask ^ bit)
                if below is None:
                    below = minor(mask ^ bit, r + 1)
                if not below:
                    continue
                sign = -1 if (mask & left).bit_count() & 1 else 1
                if dense:
                    for s, c in entry:
                        c *= sign
                        if c == 1:
                            total += below << s
                        elif c == -1:
                            total -= below << s
                        else:
                            total += (below << s) * c
                else:
                    for k1, c1 in entry:
                        c1 *= sign
                        for k2, c2 in below.items():
                            key = k1 + k2
                            s = total.get(key, 0) + c1 * c2
                            if s:
                                total[key] = s
                            else:
                                del total[key]
        minors[mask] = total
        return total

    det = minor((1 << len(packed)) - 1, 0)
    del minor  # it holds itself through its closure: free the memo now, not at the next gc
    return det


def _dense_digits(det: int, slots: int, bits: int) -> dict[int, int]:
    """A dense minor's nonzero ``bits``-wide signed digits, by key."""
    size = bits // 8
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    data = ((det + offset) ^ offset).to_bytes(size * slots, "little")
    if size <= 8 and sys.byteorder == "little":
        digits = memoryview(data).cast("bhiq"[size.bit_length() - 1])
    else:
        digits = [int.from_bytes(data[i:i + size], "little", signed=True)
                  for i in range(0, size * slots, size)]
    return {key: c for key, c in enumerate(digits) if c}


# --------------------------------------------------------------------------
# Canonical text form
# --------------------------------------------------------------------------


def poly_to_text(p: LaurentPoly, names: Sequence[str]) -> str:
    """Render in the canonical form: descending lex terms, ``a^2*b - a*b + 1`` style."""
    if len(names) != p.nvars:
        raise ValueError("need one name per variable")
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 0:
                continue
            factors.append(name if k == 1 else f"{name}^{k}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


_TERM_SIGN = re.compile(r"(?<![\^\s])\s*([+-])")


def parse_poly(text: str, names: Sequence[str]) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial.

    Accepts the grammar produced by :func:`poly_to_text`: terms joined
    by + and -, each a ``*``-separated product of an optional integer
    and powers ``name`` or ``name^k`` (k a possibly negative integer).
    """
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate variable names")
    nvars = len(names)
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial text")
    if stripped == "0":
        return LaurentPoly.zero(nvars)
    # [term, sign, term, sign, ...]: a sign whose last non-space predecessor
    # is ^ belongs to an exponent, as in a^-2, and a run of signs multiplies.
    parts = _TERM_SIGN.split(stripped)
    if not parts[-1]:
        raise ValueError(f"dangling sign in {text!r}")

    terms: Terms = {}
    sign = 1
    for sep, body in zip(("+", *parts[1::2]), parts[::2]):
        sign = -sign if sep == "-" else sign
        body = body.strip()
        if not body:
            continue
        coeff, sign = sign, 1
        exps = [0] * nvars
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {body!r}")
            if factor.lstrip("+-").isdigit():
                coeff *= int(factor)
                continue
            name, caret, exp_text = factor.partition("^")
            try:
                k = int(exp_text) if caret else 1
            except ValueError:
                raise ValueError(f"malformed exponent in factor {factor!r}") from None
            name = name.strip()
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            exps[index[name]] += k
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(nvars, terms)
