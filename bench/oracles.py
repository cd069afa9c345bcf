"""Output oracles for the normforge benchmark.

Each oracle re-derives what a command must print by a route other than
the one under test, with this module's own integer arithmetic, and
never imports ``normforge``:

- the Burau determinant must be a unit ±t^k, and det(wI - B) at t = 1 must
  be 1 + w + ... + w^(n-1) up to a unit, because the reduced Burau matrix
  at t = 1 is the reduced permutation matrix of an n-cycle;
- ``--cross-check`` must report a match (Burau route vs Fox route);
- for a two-generator relator, Delta * (b - 1) must equal the abelianized
  Fox derivative dr/da up to a unit (E_1 = m * (Delta)), computed by the
  benchmark's own ``gen.fox`` from the relator; for a^k b a^-k b^-1 the
  text must be exactly 1 + a + ... + a^(k-1);
- hulls, balance centres, dual vertices, BNS cones, Brown's simple vertices,
  norms and the ``check`` verdicts are recomputed from the verified Delta;
- every ``compare-question-b`` witness is re-checked against the cones;
- text and JSON reports must agree.

``check_case`` returns one message per failed command; an empty dict
means every command of the case printed what it must.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from gen import SECTION6_DELTA, fox, geometric_series_text

Poly = dict  # exponent tuple -> nonzero int coefficient

# --------------------------------------------------------------------------
# Laurent polynomial arithmetic over dicts
# --------------------------------------------------------------------------


def parse_poly(text: str, names: tuple[str, ...]) -> Poly:
    """Parse normforge's canonical text form, e.g. ``a^2*b - 3*a + 1``."""
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "0":
        return {}
    out: Poly = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        coeff = 1
        exps = [0] * len(names)
        for factor in piece.split("*"):
            if factor.isdigit():
                coeff = int(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in {text[:80]!r}")
            exps[index[name]] += int(power) if power else 1
        key = tuple(exps)
        if key in out:
            raise ValueError(f"repeated monomial in {text[:80]!r}")
        out[key] = sign * coeff
    return out


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        for f, d in q.items():
            key = tuple(x + y for x, y in zip(e, f))
            s = out.get(key, 0) + c * d
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def normalize(p: Poly) -> Poly:
    """Unit-class representative: minimum exponents 0, lex-largest term positive."""
    if not p:
        return {}
    nvars = len(next(iter(p)))
    low = [min(e[i] for e in p) for i in range(nvars)]
    sign = 1 if p[max(p)] > 0 else -1
    return {tuple(x - m for x, m in zip(e, low)): sign * c for e, c in p.items()}


def equal_up_to_unit(p: Poly, q: Poly) -> bool:
    return normalize(p) == normalize(q)


def is_symmetric(p: Poly) -> bool:
    """Whether p(x) and p(x^-1) agree up to a unit."""
    return equal_up_to_unit(p, {tuple(-x for x in e): c for e, c in p.items()})


def eval_var(p: Poly, var: int, value: int) -> Poly:
    """Substitute an integer for one variable, keeping the others."""
    out: Poly = {}
    for e, c in p.items():
        key = e[:var] + e[var + 1:]
        s = out.get(key, 0) + c * value ** e[var]
        if s:
            out[key] = s
        else:
            del out[key]
    return out


# --------------------------------------------------------------------------
# Words, paths, hulls and cones
# --------------------------------------------------------------------------


def parse_relator(text: str) -> list[tuple[int, int]]:
    """The relator of a ``gens: a b`` file as freely and cyclically reduced letters."""
    rel = next(line for line in text.splitlines() if line.startswith("rel:"))
    word: list[tuple[int, int]] = []
    for token in rel[4:].split():
        name, _, power = token.partition("^")
        exp = int(power) if power else 1
        letter = ({"a": 0, "b": 1}[name], 1 if exp > 0 else -1)
        for _ in range(abs(exp)):
            if word and word[-1] == (letter[0], -letter[1]):
                word.pop()
            else:
                word.append(letter)
    while len(word) >= 2 and word[0] == (word[-1][0], -word[-1][1]):
        word = word[1:-1]
    return word


def path_points(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pos = [0, 0]
    points = [(0, 0)]
    for idx, sign in word:
        pos[idx] += sign
        points.append((pos[0], pos[1]))
    return points


def hull_2d(points) -> list[tuple[int, int]]:
    """Extreme points of a planar set (monotone chain, strict turns)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain: list[tuple[int, int]] = []
    for seq in (pts, pts[::-1]):
        part: list[tuple[int, int]] = []
        for p in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        chain += part[:-1]
    return sorted(set(chain))


def balance_center(vertices) -> tuple[Fraction, ...] | None:
    """Vertex average if v -> 2c - v permutes the vertices, else None."""
    vs = set(vertices)
    dim = len(next(iter(vs)))
    c = tuple(Fraction(sum(v[i] for v in vs), len(vs)) for i in range(dim))
    for v in vs:
        image = tuple(2 * c[i] - v[i] for i in range(dim))
        if any(x.denominator != 1 for x in image) or tuple(int(x) for x in image) not in vs:
            return None
    return c


def primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def cone(label, hull) -> tuple[tuple[int, ...], ...]:
    """Constraints of the open cone of a hull vertex, as normforge prints them."""
    return tuple(sorted({primitive(tuple(a - b for a, b in zip(label, w))) for w in hull if w != label}))


def inside(constraints, chi) -> bool:
    return all(sum(d * x for d, x in zip(c, chi)) > 0 for c in constraints)


def closed_rays(constraints) -> list[tuple[int, int]]:
    """Boundary rays of the closure of a rank-2 open cone (empty if it has none)."""
    candidates = {r for d in constraints for r in ((-d[1], d[0]), (d[1], -d[0]))}
    return [r for r in candidates if all(c[0] * r[0] + c[1] * r[1] >= 0 for c in constraints)]


def interior_point(constraints) -> tuple[int, int] | None:
    """A direction in a rank-2 open cone, or None when the cone is empty."""
    if not constraints:
        return (1, 0)
    rays = closed_rays(constraints)
    candidates = list(constraints) + rays + [(r[0] + s[0], r[1] + s[1]) for r in rays for s in rays]
    return next((c for c in candidates if inside(constraints, c)), None)


def contained(inner, outer) -> bool:
    """Whether the rank-2 open cone ``inner`` lies in the open cone ``outer``."""
    if not inner:
        return not outer
    point = interior_point(inner)
    if point is None:
        return True
    if not inside(outer, point):
        return False
    return all(sum(h * x for h, x in zip(c, r)) >= 0 for c in outer for r in closed_rays(inner))


# --------------------------------------------------------------------------
# Report parsing
# --------------------------------------------------------------------------

_POINT = re.compile(r"\(([^()]*)\)")


def points(text: str) -> list[tuple]:
    """All ``(x, y, ...)`` tuples of a line, entries as ints or Fractions."""
    out = []
    for body in _POINT.findall(text):
        vals = [Fraction(tok) for tok in body.split(", ")]
        out.append(tuple(int(v) if v.denominator == 1 else v for v in vals))
    return out


def _line(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise AssertionError(f"no line starting with {prefix!r}")


def _checks(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        if not line.startswith(" ") and ": " in line:
            name, _, status = line.partition(": ")
            out[name] = status
    return out


def _components(stdout: str) -> dict[tuple, tuple]:
    """label -> constraints from ``component (l): ...; constraints: ...`` lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("component ") and "; constraints: " in line:
            head, _, cons = line.partition("; constraints: ")
            out[points(head)[0]] = tuple(points(cons))
    return out


# --------------------------------------------------------------------------
# Per-kind oracles
# --------------------------------------------------------------------------


# What a report that does not match its oracle raises while being read.
_MISMATCH = (AssertionError, ValueError, KeyError, IndexError, StopIteration)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _check_braid(case, outs) -> dict:
    n = case.meta["n"]
    letters = case.meta["letters"]
    problems = {}
    delta_text = None
    for cmd, (status, stdout) in outs.items():
        try:
            _expect(status == 0, f"exit status {status}")
            if cmd[0] == "burau":
                lines = stdout.splitlines()
                _expect(lines[0] == f"strands: {n}" and lines[1] == f"dimension: {n - 1}", "wrong shape")
                det = parse_poly(_line(stdout, "determinant: "), ("t",))
                _expect(len(det) == 1 and abs(next(iter(det.values()))) == 1, "determinant is not ±t^k")
                perm = list(range(n))
                for k in reversed(letters):
                    i = abs(k) - 1
                    perm[i], perm[i + 1] = perm[i + 1], perm[i]
                want = " ".join(f"{i + 1}->{p + 1}" for i, p in enumerate(perm)) + "  (n-cycle)"
                _expect(_line(stdout, "permutation: ") == want, "wrong permutation")
                continue
            if "--format" in cmd:
                report = json.loads(stdout)
                text = report["delta"]
                _expect(report["n_cycle"] is True and report["fox_cross_check"] is True,
                        "JSON report lacks the n-cycle flag or the cross-check match")
            else:
                text = stdout.splitlines()[0]
                _expect("# substitution: direct" in stdout, "missing substitution note")
                if "--cross-check" in cmd:
                    _expect("# fox cross-check: match up to unit" in stdout, "cross-check did not match")
            _expect(delta_text in (None, text), "mapping-torus reports disagree")
            delta_text = text
            at_one = normalize(eval_var(parse_poly(text, ("t", "w")), 0, 1))
            _expect(at_one == {(k,): 1 for k in range(n)}, "det(wI - B) at t = 1 is not 1 + w + ... + w^(n-1)")
        except _MISMATCH as exc:
            problems[cmd] = f"{case.name}: {' '.join(cmd[:-1])}: {exc}"
    return problems


def _fmt(p) -> str:
    return "(" + ", ".join(str(x) for x in p) + ")"


def _two_generator_facts(case, outs):
    """Verified Delta plus everything the 2-generator reports derive from it."""
    word = parse_relator(case.text)
    da = fox(word, 0)
    if case.kind == "section6":
        text = SECTION6_DELTA
    else:
        text = outs[("alexander", "{}")][1].splitlines()[0]
    delta = parse_poly(text, ("a", "b"))
    _expect(equal_up_to_unit(mul(delta, {(0, 1): 1, (0, 0): -1}), da),
            "Delta * (b - 1) is not dr/da up to a unit")
    if case.kind == "commutator":
        _expect(text == geometric_series_text(case.meta["k"]), "Delta is not 1 + a + ... + a^(k-1)")
    hull = hull_2d(delta)
    path = path_points(word)
    path_hull = hull_2d(path)
    visits = {v: path[:-1].count(v) for v in path_hull}  # the closed path's basepoint counts once
    return {
        "text": text,
        "delta": delta,
        "hull": hull,
        "center": balance_center(hull),
        "sigma_a": {v: cone(v, hull) for v in hull if abs(delta[v]) == 1},
        "path": path,
        "path_hull": path_hull,
        "simple": [v for v in path_hull if visits[v] == 1],
        "sigma": {v: cone(v, path_hull) for v in path_hull if visits[v] == 1},
    }


def _check_two_generator(case, outs) -> dict:
    problems = {}
    try:
        f = _two_generator_facts(case, outs)
    except _MISMATCH as exc:
        return {cmd: f"{case.name}: Delta: {exc}" for cmd in outs}
    for cmd, (status, stdout) in outs.items():
        try:
            _check_two_generator_command(cmd, status, stdout, f)
        except _MISMATCH as exc:
            problems[cmd] = f"{case.name}: {' '.join(cmd[:-1])}: {exc}"
    return problems


def _check_two_generator_command(cmd, status, stdout, f) -> None:
    name = cmd[0]
    if name == "alexander":
        _expect(status == 0, f"exit status {status}")
        if "--format" in cmd:
            report = json.loads(stdout)
            _expect(report["delta"] == f["text"] and report["variables"] == ["a", "b"]
                    and report["rank"] == 2, "JSON and text reports disagree")
        else:
            _expect(stdout.splitlines()[1] == "# variables: a b", "wrong variables")
    elif name == "check":
        want = {
            "fundamental_identity": "pass",
            "e1_structure": "pass",
            "symmetry": "pass" if is_symmetric(f["delta"]) else "fail",
            "newton_balance": "pass" if f["center"] is not None else "fail",
        }
        _expect(_checks(stdout) == want, f"verdicts {_checks(stdout)} != {want}")
        if f["center"] is not None:
            _expect(f"  center = {_fmt(f['center'])}" in stdout.splitlines(), "wrong center")
        _expect(status == (1 if "fail" in want.values() else 0), f"exit status {status}")
    elif name == "norm-ball":
        if f["center"] is None:
            _expect(status == 1 and stdout == "", "an unbalanced polytope must be flagged")
            return
        _expect(status == 0, f"exit status {status}")
        verts = points(_line(stdout, "newton vertices: "))
        _expect(sorted(verts) == f["hull"], "wrong Newton vertices")
        coeffs = [int(c) for c in _line(stdout, "coefficients: ").split()]
        _expect(coeffs == [f["delta"][v] for v in verts], "wrong vertex coefficients")
        _expect(points(_line(stdout, "center: ")) == [f["center"]], "wrong center")
        duals = _line(stdout, "dual vertices: ")
        if not duals.startswith("(not explicit"):
            c = f["center"]
            for phi in points(duals):
                top = max(sum(Fraction(p) * (v[i] - c[i]) for i, p in enumerate(phi)) for v in f["hull"])
                _expect(top == Fraction(1, 2), f"dual vertex {phi} is not on the ball's boundary")
    elif name == "sigma-a":
        _expect(status == 0, f"exit status {status}")
        _expect(_components(stdout) == f["sigma_a"], "wrong components or constraints")
    elif name == "sigma-brown":
        _expect(status == 0, f"exit status {status}")
        _expect(_line(stdout, "path: ") == f"{len(f['path'])} points, closed", "wrong path length")
        _expect(sorted(points(_line(stdout, "hull: "))) == f["path_hull"], "wrong path hull")
        _expect(sorted(points(_line(stdout, "simple vertices: "))) == sorted(f["simple"]), "wrong simple vertices")
        _expect(_components(stdout) == f["sigma"], "wrong components or constraints")
    elif name == "compare-question-b":
        _check_comparison(status, stdout, f["sigma"], f["sigma_a"])
    else:
        raise AssertionError(f"no oracle for {name}")


def _check_comparison(status, stdout, inner, outer) -> None:
    """Re-check every verdict and witness against the Σ and Σ_A cones."""
    lines = stdout.splitlines()
    _expect(lines[0] == f"Σ components: {len(inner)}", "wrong Σ component count")
    _expect(lines[1] == f"Σ_A components: {len(outer)}", "wrong Σ_A component count")
    relations = []
    for line in lines[2:-1]:
        pts = points(line)
        label = pts[0]
        cons = inner[label]
        if "PROPERLY CONTAINED in" in line:
            host, witness = outer[pts[1]], pts[2] if len(pts) > 2 else None
            _expect(contained(cons, host) and not contained(host, cons), f"{label}: not properly contained")
            relations.append("properly_contained")
        elif "EQUAL to" in line:
            host, witness = outer[pts[1]], None
            _expect(contained(cons, host) and contained(host, cons), f"{label}: cones differ")
            relations.append("equal")
        elif "NOT CONTAINED" in line:
            witness = pts[1] if len(pts) > 1 else None
            _expect(not any(contained(cons, c) for c in outer.values()), f"{label}: is contained")
            if witness is not None:
                _expect(inside(cons, witness) and not any(inside(c, witness) for c in outer.values()),
                        f"{label}: witness {witness} does not escape Σ_A")
            relations.append("not_contained")
            continue
        elif "EMPTY" in line:
            _expect(interior_point(cons) is None, f"{label}: cone is not empty")
            relations.append("empty")
            continue
        else:
            raise AssertionError(f"unparsed verdict {line!r}")
        if witness is not None:
            _expect(inside(host, witness) and not inside(cons, witness),
                    f"{label}: witness {witness} is not in the host cone minus the component")
        else:
            _expect(relations[-1] == "equal" or line.endswith("[non-certified]"),
                    f"{label}: certified verdict without a witness")
    _expect(len(relations) == len(inner), "missing component verdicts")
    decided = relations and set(relations) in ({"properly_contained"}, {"equal"})
    _expect(status == (0 if decided else 1), f"exit status {status}")


def _check_link(case, outs) -> dict:
    problems = {}
    names = ("y0", "y1", "y2")
    try:
        text = outs[("alexander", "{}")][1].splitlines()[0]
        delta = parse_poly(text, names)
        _expect(delta and is_symmetric(delta), "Delta of a link exterior must be symmetric")
    except _MISMATCH as exc:
        return {cmd: f"{case.name}: Delta: {exc}" for cmd in outs}
    center = None
    for cmd, (status, stdout) in outs.items():
        try:
            _expect(status == 0, f"exit status {status}")
            if cmd[0] == "alexander":
                if "--format" in cmd:
                    report = json.loads(stdout)
                    _expect(report["delta"] == text and report["rank"] == 3, "JSON and text reports disagree")
                else:
                    _expect(stdout.splitlines()[1] == "# variables: y0 y1 y2", "wrong variables")
            elif cmd[0] == "check":
                want = {"fundamental_identity": "pass", "e1_structure": "unsupported",
                        "symmetry": "pass", "newton_balance": "pass"}
                _expect(_checks(stdout) == want, f"verdicts {_checks(stdout)} != {want}")
                got = points(_line(stdout, "  center = "))[0]
                _expect(center in (None, got), "check and norm-ball centers differ")
                center = got
            elif cmd[0] == "norm-ball":
                verts = points(_line(stdout, "newton vertices: "))
                coeffs = [int(c) for c in _line(stdout, "coefficients: ").split()]
                _expect(coeffs == [delta.get(v) for v in verts], "vertices are not support points")
                got = points(_line(stdout, "center: "))[0]
                _expect(balance_center(verts) == got, "printed vertices are not balanced about the center")
                _expect(center in (None, got), "check and norm-ball centers differ")
                center = got
                for phi in ((x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)):
                    top = max(sum(a * b for a, b in zip(phi, e)) for e in delta)
                    _expect(top == max(sum(a * b for a, b in zip(phi, v)) for v in verts),
                            f"the support is not spanned by the printed vertices in direction {phi}")
            elif cmd[0] == "norm":
                phi = [Fraction(x) for x in cmd[cmd.index("--phi") + 1].split(",")]
                values = [sum(a * b for a, b in zip(phi, e)) for e in delta]
                _expect(stdout.strip() == str(max(values) - min(values)), "wrong norm")
            else:
                raise AssertionError(f"no oracle for {cmd[0]}")
        except _MISMATCH as exc:
            problems[cmd] = f"{case.name}: {' '.join(cmd[:-1])}: {exc}"
    return problems


def check_case(case, outs: dict) -> dict:
    """Problems per command for one case; ``outs`` maps command -> (status, stdout)."""
    if case.kind == "braid":
        return _check_braid(case, outs)
    if case.kind == "link":
        return _check_link(case, outs)
    return _check_two_generator(case, outs)
