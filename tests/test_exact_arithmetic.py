"""The library source uses no floating point.

Every module under ``src/normforge/`` is parsed with ``ast`` and searched
for the ways a float enters Python code by name: a float or complex
literal, the names ``float``, ``complex`` and ``round``, ``cmath``, and
any ``math`` member outside the integer-valued ones in ``INTEGER_MATH``
(so ``sqrt``, ``atan2``, ``log``, ``exp`` and ``pi`` all fail).  A true
division of two ints is not visible to a syntax check and is not
covered.  The checks call ``pytest.fail`` instead of asserting, so they
also run under ``python -O``.
"""

import ast
from pathlib import Path

import pytest

import normforge

SOURCE = Path(normforge.__file__).resolve().parent
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
FLOAT_NAMES = {"complex", "float", "round"}


def float_uses(source: str) -> list[str]:
    """``line: what`` for each way the source brings in a float."""
    tree = ast.parse(source)
    math_names = set()  # names bound to the math module itself
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "cmath":
                    found.append(f"{node.lineno}: import cmath")
                elif alias.name == "math":
                    math_names.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            for alias in node.names:
                if node.module == "cmath" or alias.name not in INTEGER_MATH:
                    found.append(f"{node.lineno}: from {node.module} import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found, key=lambda item: (int(item.split(":")[0]), item))


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_library_module_has_no_float(path):
    found = float_uses(path.read_text(encoding="utf-8"))
    if found:
        pytest.fail(f"{path.name} brings in floating point: " + "; ".join(found))


@pytest.mark.parametrize(
    "source, expected",
    [
        ("x = 0.5", ["1: literal 0.5"]),
        ("x = 2j", ["1: literal 2j"]),
        ("y = float(3)", ["1: float"]),
        ("y = round(x)", ["1: round"]),
        ("ys = map(float, xs)", ["1: float"]),
        ("import math\nr = math.sqrt(2) + math.pi", ["2: math.pi", "2: math.sqrt"]),
        ("import math as m\nt = m.atan2(1, 2)", ["2: m.atan2"]),
        ("from math import log, exp, gcd", ["1: from math import exp", "1: from math import log"]),
        ("import cmath", ["1: import cmath"]),
        ("from cmath import phase", ["1: from cmath import phase"]),
        ("import math\nfrom math import gcd as g\nk = math.isqrt(g(4, 6))", []),
        ("from fractions import Fraction\nq = Fraction(1, 3) / 2", []),
    ],
)
def test_detector_finds_each_kind(source, expected):
    found = float_uses(source)
    if found != expected:
        pytest.fail(f"{source!r}: found {found}, expected {expected}")
