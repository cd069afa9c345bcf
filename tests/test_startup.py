"""Start-up: importing the package runs no library module; a command runs only those it uses.

A module's code has run exactly when its namespace holds ``__builtins__``
(executing a module body puts it there).  ``object.__getattribute__``
reads the namespace without triggering a lazy module's load.  Each case
runs in a fresh interpreter, since this test session has loaded every
module already.  The probe also reports which of the costly standard
modules in ``WATCHED`` the command added to ``sys.modules`` (an
interpreter whose start-up already loads one is not held against the
command); it imports ``json`` itself only after taking that list.

It also lists every ``normforge`` module the command ran, whose code-only
lines (no blank, comment-only or docstring lines) must stay under a
ceiling pinned per command: the source each command compiles, as a count
that cannot flake the way a timing would.
"""

import ast
import io
import json
import os
import subprocess
import sys
import tokenize

import pytest

import normforge

LIBRARY = ("words", "laurent", "alexander", "polytope", "bns", "brown", "braid")
# Standard modules no command should pay for unless its output needs them:
# ``dataclasses`` pulls in ``inspect`` (and ``ast``, ``dis``, ``tokenize``);
# ``argparse`` is for help, version and usage errors only.
WATCHED = ("argparse", "dataclasses", "fractions", "inspect", "json")

_PRELUDE = """
import sys
_preloaded = set(sys.modules)
import contextlib, io
"""

_REPORT = """
loaded = sorted(name for name in %r if name in sys.modules and name not in _preloaded)
executed = sorted(
    name for name in %r
    if "__builtins__" in object.__getattribute__(sys.modules["normforge." + name], "__dict__")
)
compiled = sorted(
    name for name, module in list(sys.modules.items())
    if name.split(".")[0] == "normforge"
    and "__builtins__" in object.__getattribute__(module, "__dict__")
)
import json
print(json.dumps({"status": status, "executed": executed, "loaded": loaded, "compiled": compiled}))
""" % (WATCHED, LIBRARY)

_RUN_MAIN = """
from normforge.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = main(sys.argv[1:])
    except SystemExit as exc:  # help, version and usage errors
        status = exc.code
"""


def probe(setup: str, *argv: str) -> dict:
    """Run ``setup`` (which sets ``status``) in a new interpreter; report which modules ran."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(normforge.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + setup + _REPORT, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER)


def code_lines(module: str) -> int:
    """Lines of ``module`` (say ``normforge.cli``) that hold code, docstrings excluded."""
    parts = module.split(".")[1:] or ["__init__"]
    path = os.path.join(os.path.dirname(os.path.abspath(normforge.__file__)), *parts) + ".py"
    with open(path, encoding="utf-8") as f:
        source = f.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


PRES = ["alexander", "laurent", "words"]
HULL = [*PRES, "polytope"]
CONES = [*HULL, "bns", "brown"]
BRAID = ["braid", "laurent", "words"]
FOX_ROUTE = [*BRAID, "alexander"]


BASE = ["normforge", "normforge.cli", "normforge.errors"]


@pytest.mark.parametrize(
    "argv, executed, ceiling",
    [
        (("examples",), [], 562),
        (("examples", "section6.pres"), [], 562),
        (("alexander", "@section6.pres"), PRES, 1668),
        (("check", "@section6.pres"), HULL, 1900),
        (("norm-ball", "@section6.pres"), HULL, 1900),
        (("compare-question-b", "@section6.pres"), CONES, 2149),
        (("sigma-brown", "@section6.pres"), CONES, 2149),
        (("burau", "@gamma_3.braid"), BRAID, 1664),
        (("mapping-torus", "--cross-check", "@gamma_3.braid"), FOX_ROUTE, 1873),
        (("norm-ball", "--format", "json", "@section6.pres"), HULL, 1900),
        (("mapping-torus", "@gamma_3.braid"), BRAID, 1664),
    ],
)
def test_command_runs_only_the_modules_it_uses(argv, executed, ceiling):
    # Of the WATCHED modules, a command loads fractions only through
    # polytope, json only for --format json (the last case shows that the
    # probe sees an import), and never argparse, dataclasses or inspect.
    # Every library module runs through ``_record``.
    loaded = ["fractions"] * ("polytope" in executed) + ["json"] * ("json" in argv)
    compiled = sorted(BASE + ["normforge." + name for name in [*executed, "_record"] * bool(executed)])
    assert probe(_RUN_MAIN, *argv) == {
        "status": 0, "executed": sorted(executed), "loaded": loaded, "compiled": compiled
    }
    # The ceiling is the count when it was pinned: raise it in the change
    # that grows what the command compiles, and lower it when code goes.
    assert sum(map(code_lines, compiled)) <= ceiling


@pytest.mark.parametrize("argv, status", [(("alexander", "-h"), 0), (("norm", "@section6.pres"), 2)])
def test_help_and_usage_errors_load_argparse(argv, status):
    # The probe sees argparse: help and a usage error (here a missing --phi) load it.
    assert probe(_RUN_MAIN, *argv) == {
        "status": status, "executed": [], "loaded": ["argparse"], "compiled": BASE
    }


def test_package_import_runs_no_library_module():
    assert probe("import normforge; status = 0") == {
        "status": 0, "executed": [], "loaded": [], "compiled": ["normforge", "normforge.errors"]
    }


def test_reimport_keeps_one_module_object_per_name():
    setup = """
import importlib, normforge
words, error = normforge.words, normforge.ParseError
importlib.reload(normforge)
status = int(normforge.words is not words or normforge.ParseError is not error
             or sys.modules["normforge.words"] is not words)
"""
    assert probe(setup)["status"] == 0


def test_public_names_resolve_to_the_defining_module():
    assert normforge.__all__ and len(set(normforge.__all__)) == len(normforge.__all__)
    for name in normforge.__all__:
        namespace: dict = {}
        exec(f"from normforge import {name}", namespace)
        obj = namespace[name]
        home = sys.modules[obj.__module__]
        assert obj.__module__ in {f"normforge.{m}" for m in LIBRARY + ("errors",)}, name
        assert getattr(home, name) is obj, name
        assert getattr(normforge, obj.__module__.split(".")[1]) is home, name
    assert set(normforge.__all__) <= set(dir(normforge))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        normforge.nope
