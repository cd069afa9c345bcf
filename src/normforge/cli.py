"""Command-line front end.

Every command reads a presentation file (``gens:`` / ``rel:`` /
``word label:`` lines) or a braid file (``n=5: 1 2 -3 4``) and writes a
deterministic report to stdout, as plain text or JSON (``--format``).
Inputs are file paths, ``-`` for stdin, or ``@name`` for a bundled
example (see ``normforge examples``).

Exit status: 0 on success, 1 when the computation raises a flag (a
degenerate polynomial, an unsupported presentation shape, a failed
containment) or one of the library's own checks fails (one stderr line,
``invariant failed: <stage>: <witness>``), 2 on input errors, which
name the input line at fault when there is one (``input error: line N:
...``; an unreadable source or a bad option value has no line).  A
closed stdout ends a command with status 1, silently.

A plain command line (the command name, then options by their exact
names with each value in the next token, and the one positional) is
read straight from the ``_COMMANDS`` table by :func:`_parse_plain`,
which builds the attributes argparse would.  Any other line (``-h``,
``--version``, an abbreviation, ``--opt=value``, a usage error) falls
through to argparse, which alone prints help, version and error text,
so ``argparse`` is loaded only then.  Its parser is built for the
requested command alone (see :func:`_build_parser`); no command or an
unknown one builds every command's, and the text is the same either way.

Reports that print unit-class quantities also print the normalization
and variable conventions in use, so golden outputs are self-describing.
Rational numbers appear in JSON as [numerator, denominator] pairs.
"""

from __future__ import annotations

import os
import sys
import types

# ``json``, ``fractions`` and ``argparse`` are imported inside the
# functions that use them, so a command that needs none does not load them.

# Library modules are bound, not their names: a module's code runs only
# when a command first calls into it (see the package docstring).
from . import InvariantError, __version__, alexander, bns, braid, brown, laurent, polytope, words

_NORMALIZATION_NOTE = (
    "per-variable minimum exponent 0; leading coefficient positive (descending lex)"
)

FLAG_EXIT = 1
INPUT_EXIT = 2


class CommandFlag(Exception):
    """A computation-level condition that maps to exit status 1."""


_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
_EXAMPLE_SUFFIXES = (".pres", ".braid")


def _example_names() -> list[str]:
    return sorted(n for n in os.listdir(_DATA_DIR) if n.endswith(_EXAMPLE_SUFFIXES))


def _read_example(name: str) -> str:
    with open(os.path.join(_DATA_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def bundled_examples() -> dict[str, str]:
    """Names and contents of the inputs shipped with the package."""
    return {name: _read_example(name) for name in _example_names()}


def _read_input(source: str) -> str:
    if source.startswith("@"):
        name = source[1:]
        if name not in _example_names():
            raise words.ParseError(None, f"no bundled example {name!r}; try 'normforge examples'")
        return _read_example(name)
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise words.ParseError(None, f"cannot read {source!r}: {exc}") from None


def _fmt_point(p) -> str:
    return "(" + ", ".join(map(str, p)) + ")"


def _json_value(x):
    # What ``json`` cannot encode itself: a Fraction (ints never get here,
    # so ``fractions`` need not be imported to test for one) or a record.
    if hasattr(x, "denominator"):
        return [x.numerator, x.denominator]
    return vars(x)


def _emit(args, payload: dict, render) -> None:
    """Print the payload as JSON, or the text lines ``render(payload, args)`` makes of it."""
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2, default=_json_value))
    else:
        print("\n".join(render(payload, args)))


# --------------------------------------------------------------------------
# Commands
#
# Each command computes its results once into a payload of library values
# (tuples, Fractions, records), which ``_emit`` prints as JSON; the text
# report is rendered from the same payload by the formatter beside it,
# which reads the parsed options but computes nothing.
# --------------------------------------------------------------------------


def _load_pres(args):
    return words.parse_presentation_text(_read_input(args.input))


def cmd_alexander(args) -> int:
    pf = _load_pres(args)
    data = alexander.alexander_data(pf.presentation)
    names = tuple(g.name for g in pf.presentation.alphabet)
    var_names = names if data.abelianization.rank == len(names) else tuple(
        f"y{i}" for i in range(data.abelianization.rank)
    )
    payload = {
        "command": "alexander",
        "delta": laurent.poly_to_text(data.polynomial, var_names),
        "variables": var_names,
        "rank": data.abelianization.rank,
        "torsion": data.abelianization.torsion,
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
    data = alexander.alexander_data(pf.presentation)
    if data.degenerate:
        raise CommandFlag("the Alexander polynomial is degenerate; the norm is undefined")
    from fractions import Fraction

    try:
        if "e" in args.phi.lower():  # Fraction("1e999999999") would build a billion-digit int
            raise ValueError(args.phi)
        phi = [Fraction(tok) for tok in args.phi.split(",")]
    except (ValueError, ZeroDivisionError):
        raise words.ParseError(None, f"malformed class {args.phi!r}; expected e.g. 1,0 or 1/2,-3")
    if len(phi) != data.polynomial.nvars:
        raise words.ParseError(
            None, f"class has {len(phi)} entries, expected {data.polynomial.nvars}"
        )
    payload = {
        "command": "norm",
        "phi": phi,
        "norm": polytope.alexander_norm(data.polynomial, phi),
    }
    _emit(args, payload, lambda p, _args: [str(p["norm"])])
    return 0


def cmd_norm_ball(args) -> int:
    pf = _load_pres(args)
    data = alexander.alexander_data(pf.presentation)
    if data.degenerate:
        raise CommandFlag("degenerate Alexander polynomial: no Newton polytope")
    poly = polytope.newton_polytope(data.polynomial)
    try:
        ball = polytope.dual_ball(poly)
    except ValueError:
        raise CommandFlag("Newton polytope is not balanced; no dual ball") from None
    payload = {
        "command": "norm-ball",
        "vertices": poly.hull,
        "coefficients": poly.coefficients,
        "center": ball.center,
        "dual_vertices": ball.vertices,
        "faces": [{"vertex": f.vertex, "normal": f.normal} for f in ball.faces],
    }
    _emit(args, payload, _norm_ball_text)
    return 0


def _norm_ball_text(p, args) -> list[str]:
    dual = p["dual_vertices"]
    if not p["faces"]:
        dual_text = "none; the norm is identically 0, so the dual ball is the whole space and has no faces"
    elif dual is None:
        dual_text = "(not explicit in this rank; faces below)"
    else:
        dual_text = " ".join(_fmt_point(v) for v in dual)
    lines = [
        "newton vertices: " + " ".join(_fmt_point(v) for v in p["vertices"]),
        "coefficients: " + " ".join(str(c) for c in p["coefficients"]),
        "center: " + _fmt_point(p["center"]),
        "dual vertices: " + dual_text,
    ]
    for f in p["faces"]:
        lines.append(
            f"face of vertex {_fmt_point(f['vertex'])}: phi . {_fmt_point(f['normal'])} = 1/2"
        )
    return lines


def _sigma_payload(sigma) -> dict:
    arcs = bns.rank2_arcs(sigma)
    components = []
    for cone, arc in zip(sigma.components, arcs.arcs):
        if arc is not None:
            arc = {"full_circle": True} if arc.full_circle else {"from": arc.start, "to": arc.end}
        components.append(vars(cone) | {"arc": arc})
    return {
        "components": components,
        "excluded": sigma.excluded_vertices,
        "complement_is_finite": arcs.complement_finite,
        "complement_points": arcs.complement_points,
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
        sigma = bns.sigma_alexander(pf.presentation)
    except ValueError as exc:
        raise CommandFlag(str(exc)) from None
    if sigma.rank != 2:
        raise CommandFlag(f"arc output needs rank 2, got rank {sigma.rank}")
    _emit(args, {"command": "sigma-a"} | _sigma_payload(sigma), _sigma_text)
    return 0


def cmd_sigma_brown(args) -> int:
    pf = _load_pres(args)
    try:
        sigma = brown.brown_sigma(pf.presentation)
    except brown.UnsupportedPresentation as exc:
        raise CommandFlag(str(exc)) from None
    relator = pf.presentation.relators[0].cyclically_reduced()
    path = brown.trace_relator(relator)
    marked = brown.simple_vertices(path)
    payload = {
        "command": "sigma-brown",
        "path": path.points,
        "hull": [v for v, _ in marked],
        "simple": [v for v, m in marked if m == 1],
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
    beta = braid.parse_braid(_read_input(args.input))
    m = braid.burau(beta)
    payload = {
        "command": "burau",
        "strands": beta.strands,
        "matrix": [[laurent.poly_to_text(e, ("t",)) for e in row] for row in m.entries],
        "variable": "t",
        "determinant": laurent.poly_to_text(m.det(), ("t",)),
        "permutation": [p + 1 for p in braid.permutation(beta)],
        "n_cycle": braid.is_n_cycle(beta),
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
    beta = braid.parse_braid(_read_input(args.input))
    result = braid.mapping_torus_delta(beta, t_substitution=args.substitution)
    names = ("t", "w")
    cross = None
    if args.cross_check and result.n_cycle:
        cross = laurent.equal_up_to_unit(braid.mapping_torus_delta_fox(beta), result.poly)
    payload = {
        "command": "mapping-torus",
        "delta": laurent.poly_to_text(laurent.normalize_unit(result.poly), names),
        "variables": names,
        "substitution": result.substitution,
        "n_cycle": result.n_cycle,
        "fox_cross_check": cross,
        "conventions": {"normalization": _NORMALIZATION_NOTE},
    }
    if args.presentation:
        pres = braid.mapping_torus_presentation(beta)
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
        inner = brown.brown_sigma(pf.presentation)
        outer = bns.sigma_alexander(pf.presentation)
    except (brown.UnsupportedPresentation, ValueError) as exc:
        raise CommandFlag(str(exc)) from None
    reports = bns.compare_sigma(inner, outer)
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
        "comparisons": reports,
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
        if c.outer_label is not None:
            target += " " + _fmt_point(c.outer_label)
        witness = f"; witness direction {_fmt_point(c.witness)}" if c.witness else ""
        cert = "" if c.certified else "  [non-certified]"
        lines.append(
            f"component {_fmt_point(c.inner_label)}: {_RELATION_TEXT[c.relation]} "
            f"{target}{witness}{cert}"
        )
    lines.append(p["summary"])
    return lines


def cmd_check(args) -> int:
    data = alexander.alexander_data(_load_pres(args).presentation)
    reports: list[alexander.CheckReport] = [
        alexander.check_fundamental_identity(data),
        alexander.check_e1_structure(data),
    ]
    if data.degenerate:
        for name in ("symmetry", "newton_balance"):
            reports.append(alexander.CheckReport(name, "unsupported", ("degenerate polynomial",)))
    else:
        sym = alexander.check_symmetry(data.polynomial)
        reports.append(
            alexander.CheckReport(
                "symmetry",
                "pass" if sym else "fail",
                (f"delta(x) vs delta(x^-1): {'unit multiple' if sym else 'not associates'}",),
            )
        )
        if data.polynomial.nvars == 0:
            reports.append(
                alexander.CheckReport("newton_balance", "unsupported", ("rank 0: no polytope",))
            )
        else:
            center = polytope.balance_center(polytope.newton_polytope(data.polynomial))
            reports.append(
                alexander.CheckReport(
                    "newton_balance",
                    "pass" if center is not None else "fail",
                    (f"center = {_fmt_point(center)}",)
                    if center is not None
                    else ("the antipodal map does not permute the hull vertices",),
                )
            )
    payload = {"command": "check", "checks": reports}
    _emit(args, payload, _check_text)
    return FLAG_EXIT if any(rep.status == "fail" for rep in reports) else 0


def _check_text(p, args) -> list[str]:
    lines = []
    for c in p["checks"]:
        lines.append(f"{c.check}: {c.status}")
        lines += [f"  {w}" for w in c.witnesses]
    return lines


def cmd_examples(args) -> int:
    names = _example_names()
    if args.name is not None:
        if args.name not in names:
            raise words.ParseError(None, f"no bundled example {args.name!r}")
        sys.stdout.write(_read_example(args.name))
        return 0
    for name in names:
        print(name)
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


# Name -> (help, options beyond the ``_INPUT_OPTIONS`` below, as
# add_argument (name, keywords) pairs).  ``examples`` alone takes no input
# or format.  The one table of commands and options: ``_build_parser``
# hands it to argparse and ``_parse_plain`` reads the same keywords.
# ``main`` looks ``cmd_<name>`` up when the command runs, so a wrapper put
# in its place (a tracer, a test) is the one called.
_COMMANDS = {
    "alexander": ("Alexander polynomial of a presentation", ()),
    "norm": ("Alexander norm of a cohomology class", (
        ("--phi", dict(required=True, help="comma-separated rationals, e.g. 1,0")),)),
    "norm-ball": ("Newton polytope, balance center, and dual norm ball", ()),
    "sigma-a": ("BNS invariant computed from the Alexander polynomial", ()),
    "sigma-brown": ("BNS invariant by the lattice-path simple-vertex procedure", ()),
    "burau": ("reduced Burau matrix of a braid word", ()),
    "mapping-torus": ("det(wI - Burau) of a braid mapping torus", (
        ("--substitution", dict(
            choices=("direct", "inverse"),
            default="direct",
            help="variable identification t -> t' (direct) or t -> t'^{-1} (inverse)",
        )),
        ("--presentation", dict(action="store_true", help="also print the mapping-torus presentation")),
        ("--cross-check", dict(action="store_true", help="verify against the Fox-calculus route")),
    )),
    "compare-question-b": ("certify containment of Σ in Σ_A per component", ()),
    "check": ("structural checks: Fox identity, E1 = m·(Δ), symmetry, balance", ()),
    "examples": ("list or print bundled example inputs", (
        ("name", dict(nargs="?", help="print this bundled file")),)),
}
_INPUT_OPTIONS = (
    ("input", dict(help="path, '-' for stdin, or @name for a bundled example")),
    ("--format", dict(choices=("text", "json"), default="text")),
)


def _options(command: str) -> tuple:
    options = _COMMANDS[command][1]
    return options if command == "examples" else _INPUT_OPTIONS + options


def _parse_plain(argv: list[str]) -> types.SimpleNamespace | None:
    """The attributes argparse builds for a plain command line, or None for any other line.

    Plain: the command name, then in any order its options by their exact
    names, each value in the next token and within its ``choices``, and
    its one positional (which ``examples`` may leave out).  No token but
    the positional ``-`` may start with ``-``, so help, version,
    abbreviations, ``--opt=value``, ``--`` and negative numbers all go to
    argparse, as do a missing or extra positional and a missing required
    option.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    values, flags, given = {"command": argv[0]}, {}, []
    for name, kwargs in _options(argv[0]):
        if name.startswith("-"):
            flags[name] = kwargs
            values[_dest(name)] = kwargs.get("default", False if _is_switch(kwargs) else None)
        else:
            positional, optional, values[name] = name, kwargs.get("nargs") == "?", None
    tokens = iter(argv[1:])
    for token in tokens:
        kwargs = flags.get(token)
        if kwargs is None:
            if token.startswith("-") and token != "-":
                return None
            given.append(token)
        elif _is_switch(kwargs):
            values[_dest(token)] = True
        else:
            value = next(tokens, "-")  # a missing value is declined like a dash
            if value.startswith("-") or value not in kwargs.get("choices", (value,)):
                return None
            values[_dest(token)] = value
    if len(given) > 1 or not (given or optional):
        return None
    values[positional] = given[0] if given else None
    if any(kwargs.get("required") and values[_dest(name)] is None for name, kwargs in flags.items()):
        return None
    return types.SimpleNamespace(**values)


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _is_switch(kwargs: dict) -> bool:
    return kwargs.get("action") == "store_true"


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone if it names one, else of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="normforge",
        description="Exact Alexander/BNS/Burau invariants of finitely presented groups.",
    )
    parser.add_argument("--version", action="version", version=f"normforge {__version__}")
    if command in _COMMANDS:
        # The usage line still lists every command.  The full build keeps the
        # default metavar, which also names the argument in two error messages.
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = _COMMANDS, None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        p = sub.add_parser(name, help=_COMMANDS[name][0])
        for option, kwargs in _options(name):
            p.add_argument(option, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        status = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point the closed stdout at devnull so the flush at exit cannot fail
        # again, and exit 1 quietly, as Python itself does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except words.ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except CommandFlag as exc:
        print(f"flag: {exc}", file=sys.stderr)
        return FLAG_EXIT
    except InvariantError as exc:
        print(f"invariant failed: {exc.stage}: {exc.witness}", file=sys.stderr)
        return FLAG_EXIT


if __name__ == "__main__":
    sys.exit(main())
