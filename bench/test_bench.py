"""Tests of the benchmark itself (generators, oracles, tracer), at tiny sizes.

Run from the root of the checkout:  python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

import normforge.alexander  # noqa: E402
import normforge.braid  # noqa: E402
import normforge.laurent  # noqa: E402
from normforge.braid import mapping_torus_presentation, parse_braid  # noqa: E402
from normforge.cli import main as cli_main  # noqa: E402
from normforge.words import parse_presentation_text  # noqa: E402


def run_cli(case, tmp_path):
    path = tmp_path / case.name
    path.write_text(case.text)
    outs = {}
    for cmd in case.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            status = cli_main([str(path) if a == "{}" else a for a in cmd])
        outs[cmd] = (status, buf.getvalue())
    return outs


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_files(workload):
    first = [(c.name, c.text) for c in gen.WORKLOADS[workload](5)]
    again = [(c.name, c.text) for c in gen.WORKLOADS[workload](5)]
    other = [(c.name, c.text) for c in gen.WORKLOADS[workload](6)]
    assert first == again
    assert first != other
    assert len({name for name, _ in first}) == len(first)


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("cycles", [1, 2])
def test_random_braid_terminates_with_the_requested_cycles(n, cycles):
    length = gen.braid_length(n, cycles, 3 * n)
    assert length in (3 * n, 3 * n + 1)
    letters = gen.random_braid(random.Random(n), n, length, cycles)
    assert len(letters) == length
    assert gen.cycle_count(n, letters) == cycles
    assert all(a != -b for a, b in zip(letters, letters[1:]))


@pytest.mark.parametrize("n", range(3, 13))
def test_coxeter_braid_is_a_reduced_n_cycle(n):
    for seed in range(20):
        letters = gen.coxeter_braid(random.Random(seed), n)
        assert len(letters) == n + 1
        assert gen.cycle_count(n, letters) == 1
        assert all(a != -b for a, b in zip(letters, letters[1:]))


def test_wrong_parity_is_refused_instead_of_sampled_forever():
    with pytest.raises(ValueError, match="parity"):
        gen.random_braid(random.Random(0), 6, 18, 1)


@pytest.mark.parametrize("n,cycles", [(3, 1), (4, 2), (5, 1), (5, 2)])
def test_mapping_torus_text_matches_the_library(n, cycles):
    letters = gen.random_braid(random.Random(n), n, gen.braid_length(n, cycles, 2 * n), cycles)
    mine = parse_presentation_text(gen.mapping_torus_text(n, letters)).presentation
    theirs = mapping_torus_presentation(parse_braid(gen.braid_text(n, letters)))
    assert [str(r) for r in mine.relators] == [str(r) for r in theirs.relators]


def test_closed_relators_are_reduced_and_closed():
    word = gen.random_closed_relator(random.Random(1), 200)
    assert 50 < len(word) < 300
    assert oracles.path_points(word)[-1] == (0, 0)
    assert all(a != (b[0], -b[1]) for a, b in zip(word, word[1:] + word[:1]))
    assert oracles.parse_relator(gen.relator_text(word)) == word


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 7))
def test_commutator_oracle_accepts_the_program(k, tmp_path):
    case = gen.Case("c.pres", "commutator", gen.commutator_text(k), gen.RELATOR_COMMANDS, {"k": k})
    assert oracles.check_case(case, run_cli(case, tmp_path)) == {}


def test_oracles_accept_small_cases_of_every_kind(tmp_path):
    rng = random.Random(2)
    cases = [
        gen._section6(),
        gen._gamma(4),
        gen._braid_case("b.braid", 5, gen.coxeter_braid(rng, 5)),
        gen._link(rng, "l.pres", 4, 8),
        gen.Case("r.pres", "relator", gen.relator_text(gen.random_closed_relator(rng, 60)),
                 gen.RELATOR_COMMANDS),
    ]
    for case in cases:
        assert oracles.check_case(case, run_cli(case, tmp_path)) == {}, case.name


def test_oracle_rejects_a_corrupted_delta(tmp_path):
    case = gen.Case("c.pres", "commutator", gen.commutator_text(4), gen.RELATOR_COMMANDS, {"k": 4})
    outs = run_cli(case, tmp_path)
    status, stdout = outs[("alexander", "{}")]
    assert stdout.startswith("a^3 + a^2 + a + 1\n")
    outs[("alexander", "{}")] = (status, stdout.replace("a^2 + a", "a^2 - a", 1))
    assert oracles.check_case(case, outs)

    braid = gen._gamma(4)
    outs = run_cli(braid, tmp_path)
    status, stdout = outs[("mapping-torus", "{}")]
    outs[("mapping-torus", "{}")] = (status, stdout.replace("t^2*w", "2*t^2*w", 1))
    assert ("mapping-torus", "{}") in oracles.check_case(braid, outs)


def test_oracle_rejects_a_corrupted_witness(tmp_path):
    case = gen._section6()
    outs = run_cli(case, tmp_path)
    key = ("compare-question-b", "{}")
    status, stdout = outs[key]
    assert "witness direction (1, 1)" in stdout
    outs[key] = (status, stdout.replace("witness direction (1, 1)", "witness direction (0, 1)"))
    assert set(oracles.check_case(case, outs)) == {key}


def test_cone_containment_in_rank_two():
    quadrant = ((0, 1), (1, 0))
    half = ((1, 0),)
    assert oracles.contained(quadrant, half) and not oracles.contained(half, quadrant)
    assert oracles.contained(half, half)
    assert oracles.interior_point(((1, 0), (-1, 0))) is None
    assert not oracles.contained((), half) and oracles.contained(half, ())


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    assert run.tail(times) == (29.0, 75.0)


# --------------------------------------------------------------------------
# Tracer
# --------------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    assert tracer.self_times() == {"m.outer": 5.0, "m.inner": 5.0}
    assert tracer.top_level_time() == 10.0
    assert tracer.calls == {"m.outer": 1, "m.inner": 2}


def test_instrument_patches_every_binding_and_restores_them():
    original = normforge.laurent.poly_matrix_det
    assert normforge.alexander.poly_matrix_det is original
    tracer = Tracer()
    with instrument(tracer):
        wrapped = normforge.laurent.poly_matrix_det
        assert wrapped is not original
        assert normforge.alexander.poly_matrix_det is wrapped
        assert normforge.braid.poly_matrix_det is wrapped
        for name, module in sys.modules.items():
            if name.startswith("normforge"):
                assert original not in vars(module).values(), name
        normforge.braid.mapping_torus_delta_fox(normforge.braid.gamma(3))
    assert normforge.laurent.poly_matrix_det is original
    assert normforge.alexander.poly_matrix_det is original
    names = {span[0]: span[2] for span in tracer.spans}
    dets = [span for span in tracer.spans if span[2] == "laurent.poly_matrix_det"]
    assert dets and all(names[span[1]] == "alexander.elementary_ideal" for span in dets)
    assert tracer.counters()["alexander.minor_count"] == len(dets)


def test_counters_repeat_between_passes(tmp_path):
    case = gen._section6()
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with instrument(tracer):
            run_cli(case, tmp_path)
        runs.append(tracer.counters())
    assert runs[0] == runs[1]
    assert runs[0]["words.letters"] > 0 and runs[0]["brown.path_points"] == 3 * 43
