"""Command-line front end.

Every command reads a presentation file (``gens:`` / ``rel:`` /
``word label:`` lines) or a braid file (``n=5: 1 2 -3 4``) and writes a
deterministic report to stdout, as plain text or JSON (``--format``).
Inputs are file paths, ``-`` for stdin, or ``@name`` for a bundled
example (see ``normforge examples``).

Exit status: 0 on success, 1 when the computation raises a flag (a
degenerate polynomial, an unsupported presentation shape, a failed
containment), 2 on input errors, which carry line diagnostics.

Reports that print unit-class quantities also print the normalization
and variable conventions in use, so golden outputs are self-describing.
Rational numbers appear in JSON as [numerator, denominator] pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from . import __version__
from .alexander import (
    alexander_data,
    check_e1_structure,
    check_fundamental_identity,
    check_symmetry,
    CheckReport,
)
from .bns import compare_sigma, rank2_arcs, sigma_alexander
from .braid import (
    burau,
    is_n_cycle,
    mapping_torus_delta,
    mapping_torus_delta_fox,
    mapping_torus_presentation,
    parse_braid,
    permutation,
)
from .brown import UnsupportedPresentation, brown_sigma, simple_vertices, trace_relator
from .laurent import equal_up_to_unit, normalize_unit, poly_to_text
from .polytope import balance_center, dual_ball, newton_polytope, alexander_norm
from .words import ParseError, parse_presentation_text

_NORMALIZATION_NOTE = (
    "per-variable minimum exponent 0; leading coefficient positive (descending lex)"
)

FLAG_EXIT = 1
INPUT_EXIT = 2


class CommandFlag(Exception):
    """A computation-level condition that maps to exit status 1."""


def bundled_examples() -> dict[str, str]:
    """Names and contents of the inputs shipped with the package."""
    base = resources.files("normforge").joinpath("data")
    out = {}
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith((".pres", ".braid")):
            out[entry.name] = entry.read_text(encoding="utf-8")
    return out


def _read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if source.startswith("@"):
        name = source[1:]
        examples = bundled_examples()
        if name not in examples:
            raise ParseError(1, f"no bundled example {name!r}; try 'normforge examples'")
        return examples[name]
    try:
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(1, f"cannot read {source!r}: {exc}") from None


def _frac(x: Fraction) -> list[int]:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def _fmt_num(x) -> str:
    """An integer, a Fraction, or a [numerator, denominator] pair as text."""
    return str(Fraction(*x) if isinstance(x, list) else x)


def _fmt_point(p) -> str:
    return "(" + ", ".join(_fmt_num(x) for x in p) + ")"


def _emit(args, payload: dict, render) -> None:
    """Print the payload as JSON, or the text lines ``render(payload, args)`` makes of it."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(render(payload, args)))


# --------------------------------------------------------------------------
# Commands
#
# Each command computes its results once into a JSON-ready payload; the
# text report is rendered from that payload by the formatter beside it,
# which reads the parsed options but computes nothing.
# --------------------------------------------------------------------------


def _load_pres(args):
    return parse_presentation_text(_read_input(args.input))


def cmd_alexander(args) -> int:
    pf = _load_pres(args)
    data = alexander_data(pf.presentation)
    names = tuple(g.name for g in pf.presentation.alphabet)
    var_names = names if data.abelianization.rank == len(names) else tuple(
        f"y{i}" for i in range(data.abelianization.rank)
    )
    payload = {
        "command": "alexander",
        "delta": poly_to_text(data.polynomial, var_names),
        "variables": list(var_names),
        "rank": data.abelianization.rank,
        "torsion": list(data.abelianization.torsion),
        "degenerate": data.degenerate,
        "conventions": {"normalization": _NORMALIZATION_NOTE},
    }
    _emit(args, payload, _alexander_text)
    return FLAG_EXIT if data.degenerate or data.rank_zero else 0


def _alexander_text(p, args) -> list[str]:
    lines = [
        p["delta"],
        f"# variables: {' '.join(p['variables']) or '(none: b_1 = 0)'}",
        f"# normalization: {p['conventions']['normalization']}",
    ]
    if p["degenerate"]:
        lines.append("# degenerate: every generator of the first elementary ideal vanishes")
    if p["rank"] == 0:
        lines.append("# rank 0: the free abelianized quotient is trivial; value is an integer gcd")
    return lines


def cmd_norm(args) -> int:
    pf = _load_pres(args)
    data = alexander_data(pf.presentation)
    if data.degenerate or data.polynomial.is_zero():
        raise CommandFlag("the Alexander polynomial is degenerate; the norm is undefined")
    try:
        phi = [Fraction(tok) for tok in args.phi.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ParseError(1, f"malformed class {args.phi!r}; expected e.g. 1,0 or 1/2,-3")
    if len(phi) != data.polynomial.nvars:
        raise ParseError(
            1, f"class has {len(phi)} entries, expected {data.polynomial.nvars}"
        )
    payload = {
        "command": "norm",
        "phi": [_frac(x) for x in phi],
        "norm": _frac(alexander_norm(data.polynomial, phi)),
    }
    _emit(args, payload, lambda p, _args: [_fmt_num(p["norm"])])
    return 0


def cmd_norm_ball(args) -> int:
    pf = _load_pres(args)
    data = alexander_data(pf.presentation)
    if data.degenerate:
        raise CommandFlag("degenerate Alexander polynomial: no Newton polytope")
    poly = newton_polytope(data.polynomial)
    center = balance_center(poly)
    if center is None:
        raise CommandFlag("Newton polytope is not balanced; no dual ball")
    ball = dual_ball(poly)
    payload = {
        "command": "norm-ball",
        "vertices": [list(v) for v in poly.hull],
        "coefficients": list(poly.hull_coefficients()),
        "center": [_frac(x) for x in center],
        "dual_vertices": None
        if ball.vertices is None
        else [[_frac(x) for x in v] for v in ball.vertices],
        "faces": [
            {"vertex": list(f.vertex), "normal": [_frac(x) for x in f.normal]}
            for f in ball.faces
        ],
    }
    _emit(args, payload, _norm_ball_text)
    return 0


def _norm_ball_text(p, args) -> list[str]:
    dual = p["dual_vertices"]
    lines = [
        "newton vertices: " + " ".join(_fmt_point(v) for v in p["vertices"]),
        "coefficients: " + " ".join(str(c) for c in p["coefficients"]),
        "center: " + _fmt_point(p["center"]),
        "dual vertices: "
        + (
            "(not explicit in this rank; faces below)"
            if dual is None
            else " ".join(_fmt_point(v) for v in dual)
        ),
    ]
    for f in p["faces"]:
        lines.append(
            f"face of vertex {_fmt_point(f['vertex'])}: phi . {_fmt_point(f['normal'])} = 1/2"
        )
    return lines


def _sigma_payload(sigma) -> dict:
    arcs = rank2_arcs(sigma)
    components = []
    for cone, arc in zip(sigma.components, arcs.arcs):
        entry = {
            "label": list(cone.label),
            "constraints": [list(d) for d in cone.constraints],
            "arc": None
            if arc is None
            else (
                {"full_circle": True}
                if arc.full_circle
                else {"from": list(arc.start), "to": list(arc.end)}
            ),
        }
        components.append(entry)
    return {
        "components": components,
        "excluded": [list(v) for v in sigma.excluded_vertices],
        "complement_is_finite": arcs.complement_finite,
        "complement_points": [list(d) for d in arcs.complement_points],
    }


def _sigma_text(p, args) -> list[str]:
    lines = [f"components: {len(p['components'])}"]
    for c in p["components"]:
        arc = c["arc"]
        if arc is None:
            pic = "EMPTY"
        elif "full_circle" in arc:
            pic = "full circle"
        else:
            pic = f"open arc {_fmt_point(arc['from'])} .. {_fmt_point(arc['to'])}"
        cons = " ".join(_fmt_point(d) for d in c["constraints"])
        lines.append(f"component {_fmt_point(c['label'])}: {pic}; constraints: {cons}")
    if p["excluded"]:
        lines.append(
            "excluded vertices (coefficient not ±1): "
            + " ".join(_fmt_point(v) for v in p["excluded"])
        )
    if p["complement_is_finite"]:
        pts = " ".join(_fmt_point(d) for d in p["complement_points"]) or "(empty)"
        lines.append(f"complement: {pts}")
    else:
        lines.append("complement: infinite (the union of components does not fill the circle)")
    return lines


def cmd_sigma_a(args) -> int:
    pf = _load_pres(args)
    try:
        sigma = sigma_alexander(pf.presentation)
    except ValueError as exc:
        raise CommandFlag(str(exc)) from None
    if sigma.rank != 2:
        raise CommandFlag(f"arc output needs rank 2, got rank {sigma.rank}")
    _emit(args, {"command": "sigma-a"} | _sigma_payload(sigma), _sigma_text)
    return 0


def cmd_sigma_brown(args) -> int:
    pf = _load_pres(args)
    try:
        sigma = brown_sigma(pf.presentation)
    except UnsupportedPresentation as exc:
        raise CommandFlag(str(exc)) from None
    relator = pf.presentation.relators[0].cyclically_reduced()
    path = trace_relator(relator)
    marked = simple_vertices(path)
    payload = {
        "command": "sigma-brown",
        "path": [list(p) for p in path.points],
        "hull": [list(v) for v, _ in marked],
        "simple": [list(v) for v, m in marked if m == 1],
        "criterion": "simple-vertex criterion for closed relator paths",
    } | _sigma_payload(sigma)
    _emit(args, payload, _sigma_brown_text)
    return 0


def _sigma_brown_text(p, args) -> list[str]:
    return [
        f"path: {len(p['path'])} points, closed",
        "hull: " + " ".join(_fmt_point(v) for v in p["hull"]),
        "simple vertices: " + " ".join(_fmt_point(v) for v in p["simple"]),
        *_sigma_text(p, args),
        f"# components per the {p['criterion']}",
    ]


def cmd_burau(args) -> int:
    braid = parse_braid(_read_input(args.input))
    m = burau(braid)
    payload = {
        "command": "burau",
        "strands": braid.strands,
        "matrix": [[poly_to_text(e, ("t",)) for e in row] for row in m.entries],
        "variable": "t",
        "determinant": poly_to_text(m.det(), ("t",)),
        "permutation": [p + 1 for p in permutation(braid)],
        "n_cycle": is_n_cycle(braid),
    }
    _emit(args, payload, _burau_text)
    return 0


def _burau_text(p, args) -> list[str]:
    rows = p["matrix"]
    width = max((len(s) for row in rows for s in row), default=1)
    return [
        f"strands: {p['strands']}",
        f"dimension: {len(rows)}",
        *("[ " + "  ".join(s.ljust(width) for s in row) + " ]" for row in rows),
        f"determinant: {p['determinant']}",
        "permutation: "
        + " ".join(f"{i}->{q}" for i, q in enumerate(p["permutation"], 1))
        + ("  (n-cycle)" if p["n_cycle"] else ""),
    ]


def cmd_mapping_torus(args) -> int:
    braid = parse_braid(_read_input(args.input))
    result = mapping_torus_delta(braid, t_substitution=args.substitution)
    names = ("t", "w")
    cross = None
    if args.cross_check and result.n_cycle:
        cross = equal_up_to_unit(mapping_torus_delta_fox(braid), result.poly)
    payload = {
        "command": "mapping-torus",
        "delta": poly_to_text(normalize_unit(result.poly), names),
        "variables": list(names),
        "substitution": result.substitution,
        "n_cycle": result.n_cycle,
        "fox_cross_check": cross,
        "conventions": {"normalization": _NORMALIZATION_NOTE},
    }
    if args.presentation:
        pres = mapping_torus_presentation(braid)
        payload["presentation"] = ["gens: " + " ".join(g.name for g in pres.alphabet)] + [
            f"rel: {r}" for r in pres.relators
        ]
    _emit(args, payload, _mapping_torus_text)
    return FLAG_EXIT if not result.n_cycle or cross is False else 0


def _mapping_torus_text(p, args) -> list[str]:
    lines = [
        p["delta"],
        f"# variables: {' '.join(p['variables'])}  (t: puncture loop class t'; w: suspension class)",
        f"# substitution: {p['substitution']}",
        f"# normalization: {p['conventions']['normalization']}",
    ]
    if not p["n_cycle"]:
        lines.append(
            "# flag: braid is not an n-cycle; the determinant formula is stated for n-cycle braids"
        )
    if args.cross_check:
        verdict = {
            True: "match up to unit",
            False: "MISMATCH",
            None: "skipped (needs an n-cycle braid)",
        }[p["fox_cross_check"]]
        lines.append("# fox cross-check: " + verdict)
    if "presentation" in p:
        lines.append("# mapping-torus presentation:")
        lines += p["presentation"]
    return lines


def cmd_compare_question_b(args) -> int:
    pf = _load_pres(args)
    try:
        inner = brown_sigma(pf.presentation)
        outer = sigma_alexander(pf.presentation)
    except (UnsupportedPresentation, ValueError) as exc:
        raise CommandFlag(str(exc)) from None
    reports = compare_sigma(inner, outer)
    relations = {rep.relation for rep in reports}
    if reports and relations == {"properly_contained"}:
        answer = "no"
        summary = (
            f"{len(reports)} Σ components; "
            + ("both" if len(reports) == 2 else "all")
            + " PROPERLY CONTAINED in Σ_A; Question B answer: NO for this manifold"
        )
    elif reports and relations == {"equal"}:
        answer = "yes"
        summary = (
            f"{len(reports)} Σ components; all EQUAL to their Σ_A components;"
            " Question B answer: YES for this manifold"
        )
    else:
        answer = "undetermined"
        summary = "containment pattern is mixed or undetermined; see component lines"
    payload = {
        "command": "compare-question-b",
        "sigma_components": len(inner.components),
        "sigma_a_components": len(outer.components),
        "comparisons": [
            {
                "inner_label": list(rep.inner_label),
                "relation": rep.relation,
                "outer_label": None if rep.outer_label is None else list(rep.outer_label),
                "witness": None if rep.witness is None else list(rep.witness),
                "certified": rep.certified,
            }
            for rep in reports
        ],
        "question_b": answer,
        "summary": summary,
    }
    _emit(args, payload, _compare_text)
    return FLAG_EXIT if answer == "undetermined" else 0


_RELATION_TEXT = {
    "equal": "EQUAL to",
    "properly_contained": "PROPERLY CONTAINED in",
    "not_contained": "NOT CONTAINED in any",
    "empty": "EMPTY; no",
}


def _compare_text(p, args) -> list[str]:
    lines = [
        f"Σ components: {p['sigma_components']}",
        f"Σ_A components: {p['sigma_a_components']}",
    ]
    for c in p["comparisons"]:
        target = "Σ_A component"
        if c["outer_label"] is not None:
            target += " " + _fmt_point(c["outer_label"])
        witness = f"; witness direction {_fmt_point(c['witness'])}" if c["witness"] else ""
        cert = "" if c["certified"] else "  [non-certified]"
        lines.append(
            f"component {_fmt_point(c['inner_label'])}: {_RELATION_TEXT[c['relation']]} "
            f"{target}{witness}{cert}"
        )
    lines.append(p["summary"])
    return lines


def cmd_check(args) -> int:
    data = alexander_data(_load_pres(args).presentation)
    reports: list[CheckReport] = [check_fundamental_identity(data), check_e1_structure(data)]
    if data.degenerate:
        reports.append(CheckReport("symmetry", "unsupported", ("degenerate polynomial",)))
        reports.append(CheckReport("newton_balance", "unsupported", ("degenerate polynomial",)))
    else:
        sym = check_symmetry(data.polynomial)
        reports.append(
            CheckReport(
                "symmetry",
                "pass" if sym else "fail",
                (f"delta(x) vs delta(x^-1): {'unit multiple' if sym else 'not associates'}",),
            )
        )
        if data.polynomial.nvars == 0:
            reports.append(
                CheckReport("newton_balance", "unsupported", ("rank 0: no polytope",))
            )
        else:
            center = balance_center(newton_polytope(data.polynomial))
            reports.append(
                CheckReport(
                    "newton_balance",
                    "pass" if center is not None else "fail",
                    (f"center = {_fmt_point(center)}",)
                    if center is not None
                    else ("the antipodal map does not permute the hull vertices",),
                )
            )
    payload = {"command": "check", "checks": [rep.as_dict() for rep in reports]}
    _emit(args, payload, _check_text)
    return FLAG_EXIT if any(rep.status == "fail" for rep in reports) else 0


def _check_text(p, args) -> list[str]:
    lines = []
    for c in p["checks"]:
        lines.append(f"{c['check']}: {c['status']}")
        lines += [f"  {w}" for w in c["witnesses"]]
    return lines


def cmd_examples(args) -> int:
    examples = bundled_examples()
    if args.name:
        if args.name not in examples:
            raise ParseError(1, f"no bundled example {args.name!r}")
        sys.stdout.write(examples[args.name])
        return 0
    for name in examples:
        print(name)
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normforge",
        description="Exact Alexander/BNS/Burau invariants of finitely presented groups.",
    )
    parser.add_argument("--version", action="version", version=f"normforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="path, '-' for stdin, or @name for a bundled example")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    add("alexander", cmd_alexander, "Alexander polynomial of a presentation")
    p_norm = add("norm", cmd_norm, "Alexander norm of a cohomology class")
    p_norm.add_argument("--phi", required=True, help="comma-separated rationals, e.g. 1,0")
    add("norm-ball", cmd_norm_ball, "Newton polytope, balance center, and dual norm ball")
    add("sigma-a", cmd_sigma_a, "BNS invariant computed from the Alexander polynomial")
    add("sigma-brown", cmd_sigma_brown, "BNS invariant by the lattice-path simple-vertex procedure")
    add("burau", cmd_burau, "reduced Burau matrix of a braid word")
    p_mt = add("mapping-torus", cmd_mapping_torus, "det(wI - Burau) of a braid mapping torus")
    p_mt.add_argument(
        "--substitution",
        choices=("direct", "inverse"),
        default="direct",
        help="variable identification t -> t' (direct) or t -> t'^{-1} (inverse)",
    )
    p_mt.add_argument("--presentation", action="store_true", help="also print the mapping-torus presentation")
    p_mt.add_argument("--cross-check", action="store_true", help="verify against the Fox-calculus route")
    add("compare-question-b", cmd_compare_question_b, "certify containment of Σ in Σ_A per component")
    add("check", cmd_check, "structural checks: Fox identity, E1 = m·(Δ), symmetry, balance")
    p_ex = add("examples", cmd_examples, "list or print bundled example inputs", needs_input=False)
    p_ex.add_argument("name", nargs="?", help="print this bundled file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except CommandFlag as exc:
        print(f"flag: {exc}", file=sys.stderr)
        return FLAG_EXIT


if __name__ == "__main__":
    sys.exit(main())
