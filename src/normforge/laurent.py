"""Exact multivariate Laurent polynomial arithmetic over the integers.

This module implements the ring Z[x_1^{±1}, ..., x_n^{±1}]: addition,
multiplication, exact division, greatest common divisors, substitution,
and comparison up to multiplication by a unit.  Everything is exact
integer arithmetic; no floating point is used anywhere.

A polynomial is stored as a map from exponent vectors (tuples of ints,
negative entries allowed) to nonzero integer coefficients.  The
canonical printed form lists terms in descending lexicographic order of
exponent vectors, e.g. ``a^2*b - a*b - a + 1``.

The units of this ring are exactly the signed monomials ±x^v.
Quantities that are only well defined up to a unit (gcds, Alexander
polynomials) are normalized by shifting exponents so that each
variable's minimum exponent is 0 and then making the leading
(lex-largest) coefficient positive; see :func:`normalize_unit`.

The gcd is computed by clearing monomial content and then running a
primitive polynomial remainder sequence in Z[x_1, ..., x_n], recursing
on the number of variables (content and primitive part are taken with
respect to the last variable).  Coefficients are arbitrary-precision
throughout, so intermediate growth in the remainder sequence is safe.
"""

from __future__ import annotations

from math import gcd as _igcd
from operator import add
from typing import Mapping, Sequence

Exponents = tuple[int, ...]
Terms = dict[Exponents, int]


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

    def support(self) -> list[Exponents]:
        """Exponent vectors with nonzero coefficient, in descending lex order."""
        return sorted(self.terms, reverse=True)

    def leading(self) -> tuple[Exponents, int]:
        """The lex-largest term, as (exponents, coefficient)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def coeff(self, exps: Sequence[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    def min_exponents(self) -> Exponents:
        """Per-variable minimum exponent over the support (p must be nonzero)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no exponent range")
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def augmentation(self) -> int:
        """Image under the ring map sending every variable to 1 (sum of coefficients)."""
        return sum(self.terms.values())

    def shifted(self, delta: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial x^delta."""
        d = tuple(delta)
        if len(d) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, d)): c for e, c in self.terms.items()},
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
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly(self.nvars, _dict_mul(self.terms, o.terms))

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
    (e, c), = u.terms.items()
    return LaurentPoly(u.nvars, {tuple(-x for x in e): c})


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of p's unit class.

    Exponents are shifted so each variable's minimum exponent is 0, then
    the sign is fixed so the lex-leading coefficient is positive.  Every
    nonzero polynomial has exactly one normalized associate, which makes
    golden values deterministic.
    """
    if p.is_zero():
        return p
    shift = tuple(-m for m in p.min_exponents())
    q = p.shifted(shift)
    if q.leading()[1] < 0:
        q = -q
    return q


def unit_quotient(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """The unit u with q = u * p, or None if p and q are not associates.

    Both zero counts as associate (witness 1); zero vs nonzero does not.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    if p.is_zero() and q.is_zero():
        return LaurentPoly.one(p.nvars)
    if p.is_zero() or q.is_zero():
        return None
    (ep, cp) = p.leading()
    (eq, cq) = q.leading()
    if cq == cp:
        sign = 1
    elif cq == -cp:
        sign = -1
    else:
        return None
    shift = tuple(b - a for a, b in zip(ep, eq))
    candidate = LaurentPoly(p.nvars, {shift: sign})
    if candidate * p == q:
        return candidate
    return None


def equal_up_to_unit(p: LaurentPoly, q: LaurentPoly) -> bool:
    return unit_quotient(p, q) is not None


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
        diff = tuple(a - b for a, b in zip(r_exp, d_exp))
        if any(x < 0 for x in diff):
            return None
        c = rem[r_exp]
        if c % d_coeff:
            return None
        t = c // d_coeff
        quo[diff] = t
        for e, dc in den.items():
            ee = tuple(a + b for a, b in zip(e, diff))
            s = rem.get(ee, 0) - t * dc
            if s:
                rem[ee] = s
            else:
                rem.pop(ee, None)
    return quo


def divide_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """The exact quotient p / d in the Laurent ring, or None if d does not divide p.

    The quotient is unique when it exists (the ring is a domain).

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
    # Shift both to ordinary polynomials with per-variable min exponent 0;
    # exactness is unaffected because monomials are units.
    mp = p.min_exponents()
    md = d.min_exponents()
    num = {tuple(a - b for a, b in zip(e, mp)): c for e, c in p.terms.items()}
    den = {tuple(a - b for a, b in zip(e, md)): c for e, c in d.terms.items()}
    quo = _dict_div_exact(num, den)
    if quo is None:
        return None
    shift = tuple(a - b for a, b in zip(mp, md))
    return LaurentPoly(p.nvars, quo).shifted(shift)


# --------------------------------------------------------------------------
# Gcd via primitive polynomial remainder sequences
# --------------------------------------------------------------------------

# The recursion views Z[x_1..x_n] as R[x_n] with R = Z[x_1..x_{n-1}].
# A "split" polynomial is a dict from x_n-degree to a coefficient dict in
# the remaining n-1 variables.


def _split_last(terms: Terms) -> dict[int, Terms]:
    out: dict[int, Terms] = {}
    for e, c in terms.items():
        out.setdefault(e[-1], {})[e[:-1]] = c
    return out


def _join_last(split: dict[int, Terms]) -> Terms:
    out: Terms = {}
    for k, sub in split.items():
        for e, c in sub.items():
            out[e + (k,)] = c
    return out


def _dict_mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _dict_sub(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _poly_gcd(p: Terms, q: Terms, nvars: int) -> Terms:
    """Gcd of ordinary (nonnegative-exponent) polynomials, up to sign."""
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    if nvars == 0:
        return {(): _igcd(p[()], q[()])}

    ps = _split_last(p)
    qs = _split_last(q)
    cont_p = _content(ps, nvars - 1)
    cont_q = _content(qs, nvars - 1)
    pp = _divide_coeffs(ps, cont_p)
    qq = _divide_coeffs(qs, cont_q)
    cont = _poly_gcd(cont_p, cont_q, nvars - 1)

    u, v = (pp, qq) if max(pp) >= max(qq) else (qq, pp)
    while v:
        r = _prem(u, v, nvars)
        if r:
            r = _divide_coeffs(r, _content(r, nvars - 1))
        u, v = v, r
    g = _join_last(u)
    cont_embedded = {e + (0,): c for e, c in cont.items()}
    return _dict_mul(g, cont_embedded)


def _content(split: dict[int, Terms], nvars: int) -> Terms:
    it = iter(split.values())
    g = dict(next(it))
    for coeff in it:
        g = _poly_gcd(g, coeff, nvars)
        if len(g) == 1 and abs(next(iter(g.values()))) == 1 and not any(next(iter(g))):
            break
    return g


def _divide_coeffs(split: dict[int, Terms], content: Terms) -> dict[int, Terms]:
    out: dict[int, Terms] = {}
    for k, coeff in split.items():
        q = _dict_div_exact(coeff, content)
        assert q is not None, "content must divide every coefficient"
        out[k] = q
    return out


def _prem(u: dict[int, Terms], v: dict[int, Terms], nvars: int) -> dict[int, Terms]:
    # Iterated pseudo-remainder of u by v in R[x_n]; the result differs
    # from the true remainder by a power of lc(v), which the primitive
    # remainder sequence removes again.
    dv = max(v)
    lv = v[dv]
    r = {k: dict(c) for k, c in u.items()}
    while r and max(r) >= dv:
        dr = max(r)
        lr = r.pop(dr)
        new: dict[int, Terms] = {}
        for k, c in r.items():
            new[k] = _dict_mul(lv, c)
        for k, c in v.items():
            if k == dv:
                continue
            kk = k + dr - dv
            prev = new.get(kk, {})
            res = _dict_sub(prev, _dict_mul(lr, c))
            if res:
                new[kk] = res
            else:
                new.pop(kk, None)
        r = new
    return r


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """A greatest common divisor in Z[x^±1], unit-normalized.

    Monomial factors are units here, so they never appear in the result:
    gcd(2ab, 4a^2) is the constant 2.

    >>> a, b = (LaurentPoly.variable(2, i) for i in range(2))
    >>> gcd(2 * a * b, 4 * a**2) == 2
    True
    """
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return normalize_unit(q)
    if q.is_zero():
        return normalize_unit(p)
    a = p.shifted(tuple(-m for m in p.min_exponents())).terms
    b = q.shifted(tuple(-m for m in q.min_exponents())).terms
    g = _poly_gcd(dict(a), dict(b), p.nvars)
    return normalize_unit(LaurentPoly(p.nvars, g))


def gcd_many(polys: Sequence[LaurentPoly]) -> LaurentPoly:
    """Gcd of a nonempty family, ignoring zero entries; all zero is an error."""
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        raise ValueError("gcd of an all-zero family is undefined")
    g = normalize_unit(nonzero[0])
    one = LaurentPoly.one(g.nvars)
    for p in nonzero[1:]:
        if g == one:
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
    if p.nvars == 0:
        target = 0
    else:
        target = images[0].nvars
        for im in images:
            if im.nvars != target:
                raise ValueError("images live in different rings")
    if p.is_zero():
        return LaurentPoly.zero(target)

    # Fast path: all images are units, so substitution is an exponent map.
    units: list[tuple[Exponents, int]] | None = []
    for im in images:
        if im.is_unit():
            (e, c), = im.terms.items()
            units.append((e, c))
        else:
            units = None
            break
    if units is not None:
        out: Terms = {}
        for e, c in p.terms.items():
            new_e = [0] * target
            sign = 1
            for k, ek in enumerate(e):
                ue, uc = units[k]
                for i in range(target):
                    new_e[i] += ue[i] * ek
                if uc < 0 and ek % 2:
                    sign = -sign
            key = tuple(new_e)
            s = out.get(key, 0) + sign * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LaurentPoly(target, out)

    result = LaurentPoly.zero(target)
    power_cache: dict[tuple[int, int], LaurentPoly] = {}
    for e, c in p.terms.items():
        term = LaurentPoly.constant(target, c)
        for k, ek in enumerate(e):
            if ek == 0:
                continue
            if ek < 0 and not images[k].is_unit():
                raise ValueError(
                    f"variable {k} occurs with negative exponent but its image is not a unit"
                )
            key = (k, ek)
            if key not in power_cache:
                power_cache[key] = images[k] ** ek
            term = term * power_cache[key]
        result = result + term
    return result


def invert_variables(p: LaurentPoly) -> LaurentPoly:
    """Substitute x_i -> x_i^{-1} for every variable."""
    return LaurentPoly(p.nvars, {tuple(-x for x in e): c for e, c in p.terms.items()})


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
    return LaurentPoly(target, out)


# --------------------------------------------------------------------------
# Determinants of polynomial matrices
# --------------------------------------------------------------------------


def poly_matrix_det(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square matrix of Laurent polynomials (cofactor expansion)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no well-defined ring; use elementary-ideal conventions")
    nvars = rows[0][0].nvars
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    mat = [list(r) for r in rows]

    def det(row_idx: list[int], col_idx: list[int]) -> LaurentPoly:
        k = len(row_idx)
        if k == 1:
            return mat[row_idx[0]][col_idx[0]]
        i = row_idx[0]
        total = LaurentPoly.zero(nvars)
        rest_rows = row_idx[1:]
        for pos, j in enumerate(col_idx):
            entry = mat[i][j]
            if entry.is_zero():
                continue
            sub = det(rest_rows, col_idx[:pos] + col_idx[pos + 1:])
            term = entry * sub
            total = total + term if pos % 2 == 0 else total - term
        return total

    return det(list(range(n)), list(range(n)))


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
    for e in p.support():
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

    # Split into signed terms at + and - signs that do not follow a caret
    # (signs directly after ^ belong to an exponent, as in a^-2).
    chunks: list[tuple[int, str]] = []
    i, n = 0, len(stripped)
    while i < n:
        while i < n and stripped[i].isspace():
            i += 1
        if i >= n:
            break
        sign = 1
        while i < n and stripped[i] in "+-":
            if stripped[i] == "-":
                sign = -sign
            i += 1
            while i < n and stripped[i].isspace():
                i += 1
        start = i
        prev = ""
        while i < n:
            ch = stripped[i]
            if ch in "+-" and prev != "^":
                break
            if not ch.isspace():
                prev = ch
            i += 1
        body = stripped[start:i].strip()
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        chunks.append((sign, body))

    terms: Terms = {}
    for sgn, body in chunks:
        coeff = sgn
        exps = [0] * nvars
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {body!r}")
            if factor.lstrip("+-").isdigit():
                coeff *= int(factor)
                continue
            if "^" in factor:
                name, _, exp_text = factor.partition("^")
                try:
                    k = int(exp_text)
                except ValueError:
                    raise ValueError(f"malformed exponent in factor {factor!r}") from None
            else:
                name, k = factor, 1
            name = name.strip()
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            exps[index[name]] += k
        key = tuple(exps)
        s = terms.get(key, 0) + coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return LaurentPoly(nvars, terms)
