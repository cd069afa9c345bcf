"""Byte-identical CLI reports: exit status, stdout and stderr of every command.

Each case runs ``normforge.cli.main`` in-process on a bundled example or
on an input under ``tests/golden/`` and compares with ``golden/cli.json``.
After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from normforge.cli import main

DATA = Path(__file__).resolve().parent / "golden"
GOLDEN = DATA / "cli.json"

PRES_COMMANDS = (
    ("alexander",),
    ("norm", "--phi", "1,0"),
    ("norm-ball",),
    ("sigma-a",),
    ("sigma-brown",),
    ("compare-question-b",),
    ("check",),
)
BRAID_COMMANDS = (
    ("burau",),
    ("mapping-torus",),
    ("mapping-torus", "--cross-check"),
    ("mapping-torus", "--presentation"),
    ("mapping-torus", "--substitution", "inverse"),
)
INPUTS = (
    ("@section6.pres", PRES_COMMANDS),
    *((f"@gamma_{n}.braid", BRAID_COMMANDS) for n in range(2, 6)),
    # mapping torus of the two-cycle braid n=3: 1 1 2 -1 2 (b_1 = 3)
    ("link3.pres", (("alexander",), ("norm-ball",), ("check",))),
    ("free2.pres", PRES_COMMANDS),  # no relator: degenerate polynomial
    ("not_cycle.braid", BRAID_COMMANDS),
    ("z2.pres", PRES_COMMANDS),  # Z^2: Delta = 1, four Brown components
    ("rank0.pres", (("alexander",), ("check",))),  # b_1 = 0
)


def cases() -> list[tuple[str, ...]]:
    out = [("examples",), ("examples", "section6.pres")]
    for source, commands in INPUTS:
        for cmd in commands:
            for fmt in ("text", "json"):
                out.append(cmd + (source, "--format", fmt))
    return out


def run(argv: tuple[str, ...]) -> dict:
    resolved = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(resolved)
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


def test_golden_has_no_stale_cases(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


if __name__ == "__main__":
    table = {" ".join(argv): run(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
