"""The normforge benchmark: seeded inputs through the CLI, every output checked.

Run from the root of a normforge checkout (the program is taken from
``src/``; nothing needs installing):

    python3 bench/run.py --workload braid-torus --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 0     # one row per workload

A run generates the workload's inputs from ``--seed`` (``gen.py``) and
writes them under ``bench/out/``, so the program only ever reads files.
It then measures for ``--seconds`` seconds as a closed loop with one
client (each command starts when the previous one has ended; nothing runs
in parallel) and checks every output with the oracles in ``oracles.py``.
For the default seed, a digest of every command's exit status and
stdout must also match ``golden.json``: outputs stay byte-identical.

``--trace 0`` reports the end-to-end metrics, all measured untraced:

- ``wall_s``       wall time of one sequential pass over the workload's CLI
                   commands, each run as a subprocess (the sum over commands
                   of each command's median time over the run's passes);
- ``cmd_p50_ms``   median wall time of one command, interpreter start included;
- ``cmd_tail_ms``  per pass, the highest percentile of the command times
                   with at least 10 samples beyond it (median over passes;
                   the percentile and sample count are printed beside it);
- ``lib_wall_s``   the same command list run in-process through
                   ``normforge.cli.main(argv)``, stdout captured (estimated
                   like ``wall_s``);
- ``cli_start_ms`` median wall time of ``normforge examples``, sampled
                   between the commands of every pass;
- ``setup_s``      median time to generate the inputs and write them, also
                   repeated between the commands of every pass;
- ``peak_rss_mb``  the largest maximum RSS of any command subprocess.

A run makes one pass (each command as a subprocess and then in-process,
command by command) and more while another fits in ``--seconds``.

The failure ratio (failed / attempted commands) is printed and carried
by the result's ``attempted`` and ``failed`` counts.  A command fails
when its output is wrong, its exit status is unexpected, it crashes or
it times out.

``--trace 1`` reports per-layer metrics from separate in-process passes
with the tracer of ``tracer.py`` patched in: the self time of each layer,
exact counters read from returned values (which must repeat between
passes), ``cli.import_s`` (a fresh ``import normforge.cli`` minus a bare
interpreter start), ``trace.overhead_ratio`` (traced / untraced pass)
and ``trace.unattributed_share`` (pass time outside every span).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gen
import oracles
from tracer import CALL_COUNTERS, LAYERS, SIZE_COUNTERS, Tracer, instrument

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
PROBES = 8  # start-up (and set-up) samples per pass
COMMAND_TIMEOUT = 60
EXAMPLES = ["gamma_2.braid", "gamma_3.braid", "gamma_4.braid", "gamma_5.braid", "section6.pres"]


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


class Inputs:
    """Writes a workload's inputs and times each (re)generation.

    Set-up is timed at the start and again between measured commands, so
    that its median samples the whole run; every regeneration must produce
    the same files byte for byte.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.directory = OUT / "inputs" / f"{workload}-{seed}"
        self.times: list[float] = []
        self.digest = None
        self.cases, self.paths = self.write()

    def write(self):
        gc.collect()  # garbage the measured commands left is not set-up's cost
        start = time.perf_counter()
        cases = gen.WORKLOADS[self.workload](self.seed)
        self.directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for case in cases:
            path = self.directory / case.name
            path.write_text(case.text, encoding="utf-8")
            paths[case.name] = str(path.relative_to(ROOT))
        self.times.append(time.perf_counter() - start)
        digest = hashlib.sha256("".join(c.name + "\0" + c.text for c in cases).encode()).hexdigest()
        if self.digest not in (None, digest):
            raise RuntimeError("input generation is not deterministic")
        self.digest = digest
        return cases, paths


def commands(cases, paths):
    """(case, command key, argv) for every command of the workload, in order."""
    return [(case, cmd, [paths[case.name] if a == "{}" else a for a in cmd])
            for case in cases for cmd in case.commands]


# --------------------------------------------------------------------------
# Running the program
# --------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_process(argv: list[str]) -> tuple[object, str, float]:
    """Run one subprocess to completion; (exit status or 'timeout', stdout, seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, env=_env(),
                              cwd=ROOT, timeout=COMMAND_TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", "", time.perf_counter() - start
    seconds = time.perf_counter() - start
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), seconds


def run_cli(argv: list[str]) -> tuple[object, str, float]:
    return run_process(["-m", "normforge.cli", *argv])


def run_lib(argv: list[str], main) -> tuple[object, str, float]:
    """One command in-process through ``normforge.cli.main``, stdout captured."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(list(argv))
        except Exception as exc:  # a crash is a failed command, not a failed run
            status = f"crash: {type(exc).__name__}: {exc}"
    return status, out.getvalue(), time.perf_counter() - start


def lib_pass(todo, main) -> tuple[list, float]:
    start = time.perf_counter()
    records = [run_lib(argv, main) for _case, _cmd, argv in todo]
    return records, time.perf_counter() - start


def probe(argv: list[str], expect_stdout: str | None = None) -> tuple[float, bool]:
    status, stdout, seconds = run_process(argv)
    return seconds, status == 0 and (expect_stdout is None or stdout == expect_stdout)


# --------------------------------------------------------------------------
# Checking outputs
# --------------------------------------------------------------------------


class Checker:
    """Oracle verdicts per command; later passes must repeat the first byte for byte."""

    def __init__(self, todo, workload: str, seed: int):
        self.todo = todo
        self.reference: list | None = None
        self.problems: dict[int, str] = {}
        golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.is_file() else {}
        self.golden = golden.get("outputs") if seed == DEFAULT_SEED else None
        self.golden_counters = golden.get("counters") if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0

    def key(self, i: int) -> str:
        case, cmd, _argv = self.todo[i]
        return " ".join([case.name] + [a for a in cmd if a != "{}"])

    def digests(self, records) -> dict[str, str]:
        return {self.key(i): hashlib.sha256(f"{status}\0{stdout}".encode()).hexdigest()[:16]
                for i, (status, stdout, _t) in enumerate(records)}

    def check(self, records) -> None:
        outputs = [(status, stdout) for status, stdout, _t in records]
        if self.reference is None:
            self.reference = outputs
            by_case: dict[str, dict] = {}
            for i, (case, cmd, _argv) in enumerate(self.todo):
                by_case.setdefault(case.name, {})[cmd] = (i, outputs[i])
            for case_name, outs in by_case.items():
                case = next(c for c, _cmd, _a in self.todo if c.name == case_name)
                found = oracles.check_case(case, {cmd: out for cmd, (_i, out) in outs.items()})
                for cmd, message in found.items():
                    self.problems[outs[cmd][0]] = message
            if self.golden is not None:
                for key, digest in self.digests(records).items():
                    if self.golden.get(key) != digest:
                        i = next(j for j in range(len(self.todo)) if self.key(j) == key)
                        self.problems.setdefault(i, f"{key}: output differs from golden.json")
        for i, out in enumerate(outputs):
            self.attempted += 1
            if i in self.problems:
                self.failed += 1
            elif out != self.reference[i]:
                self.failed += 1
                self.problems[i] = f"{self.key(i)}: output changed between passes"

    def count_probe(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.setdefault(-1, "normforge examples: wrong output or exit status")


# --------------------------------------------------------------------------
# Measuring
# --------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0 * (n - 1) / n
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref_file = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref_file.is_file():
            commit = ref_file.read_text().strip()
    bare = [probe(["-c", "pass"])[0] for _ in range(PROBES)]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "bare_start_ms": round(median(bare) * 1000, 3),
    }


def pass_time(times: list[float], per_pass: int) -> float:
    """One pass, estimated as the sum over commands of each command's median time.

    ``times`` holds whole passes back to back.  Taking each command's
    median before summing keeps a burst of machine noise during one
    command of one pass out of the estimate.
    """
    passes = len(times) // per_pass
    return sum(median(times[p * per_pass + i] for p in range(passes)) for i in range(per_pass))


def _loop(seconds: float, iteration, minimum: int = 1) -> None:
    """Run ``minimum`` iterations, then more while another of the same length fits."""
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        start = time.perf_counter()
        iteration()
        done += 1
        if done >= minimum and time.perf_counter() + (time.perf_counter() - start) > deadline:
            return


def measure_end_to_end(inputs, todo, checker, main, seconds: float) -> tuple[dict, dict]:
    starts, cmd_times, lib_times, tails = [], [], [], []
    expected_examples = "\n".join(EXAMPLES) + "\n"

    def between_commands():
        # Spread over the pass, so that start-up and set-up are sampled
        # across the whole run rather than in one burst.
        t, ok = probe(["-m", "normforge.cli", "examples"], expected_examples)
        starts.append(t)
        checker.count_probe(ok)
        inputs.write()

    def iteration():
        # One CLI pass and one in-process pass, interleaved command by command
        # so that both sample the whole run, not two separate stretches of it.
        cli, lib = [], []
        stride = max(1, len(todo) // PROBES)
        for i, (_case, _cmd, argv) in enumerate(todo):
            cli.append(run_cli(argv))
            lib.append(run_lib(argv, main))
            if i % stride == stride - 1:
                between_commands()
        checker.check(cli)
        checker.check(lib)
        times = [t for _s, _o, t in cli]
        cmd_times.extend(times)
        tails.append(tail(times)[0])
        lib_times.extend(t for _s, _o, t in lib)

    _loop(seconds, iteration)
    percentile = tail([0.0] * len(todo))[1]
    metrics = {
        "wall_s": (pass_time(cmd_times, len(todo)), "s"),
        "cmd_p50_ms": (median(cmd_times) * 1000, "ms"),
        "cmd_tail_ms": (median(tails) * 1000, "ms"),
        "lib_wall_s": (pass_time(lib_times, len(todo)), "s"),
        "cli_start_ms": (median(starts) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "setup_s": (median(inputs.times), "s"),
    }
    detail = {
        "cli_passes": len(tails),
        "cmd_tail_percentile": round(percentile, 2),
        "cmd_samples_per_pass": len(todo),
        "cmd_times_s": {checker.key(i): [round(cmd_times[p * len(todo) + i], 6) for p in range(len(tails))]
                        for i in range(len(todo))},
    }
    return metrics, detail


def measure_layers(todo, checker, main, seconds: float) -> tuple[dict, dict]:
    plain, traced, layer_runs, unattributed, counter_runs = [], [], [], [], []
    spans: list = []

    def iteration():
        records, wall = lib_pass(todo, main)
        checker.check(records)
        plain.append(wall)
        tracer = Tracer()
        with instrument(tracer):
            records, wall = lib_pass(todo, main)
        checker.check(records)
        traced.append(wall)
        layer_runs.append(tracer.layer_times())
        unattributed.append((wall - tracer.top_level_time()) / wall)
        counter_runs.append(tracer.counters())
        if not spans:
            spans.extend(tracer.spans)
        for _ in range(PROBES // 2):
            bare.append(probe(["-c", "pass"])[0])
            imports.append(probe(["-c", "import normforge.cli"])[0])

    bare, imports = [], []
    _loop(seconds, iteration, minimum=2)  # two traced passes, so counters can be compared

    # Counters must repeat between passes and, for the default seed, match the
    # values golden.json recorded in another process.  A counter that does not
    # is reported; it says nothing about whether the outputs are right.
    runs = counter_runs + ([checker.golden_counters] if checker.golden_counters else [])
    unstable = {name: [run.get(name) for run in runs] for name in counter_runs[0]
                if any(run.get(name) != counter_runs[0][name] for run in runs)}
    metrics = {layer: (median([run[layer] for run in layer_runs]), "s") for layer in LAYERS}
    for name in list(CALL_COUNTERS) + list(SIZE_COUNTERS):
        metrics[name] = (counter_runs[0][name], "bits" if name.endswith("bits_max") else "count")
    metrics["cli.import_s"] = (median(imports) - median(bare), "s")
    metrics["trace.overhead_ratio"] = (median(traced) / median(plain), "ratio")
    metrics["trace.unattributed_share"] = (median(unattributed), "ratio")
    detail = {"traced_passes": len(traced), "unstable_counters": unstable,
              "spans_first_traced_pass": spans}
    return metrics, detail


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = Inputs(workload, seed)
    todo = commands(inputs.cases, inputs.paths)
    checker = Checker(todo, workload, seed)
    env = environment()
    from normforge.cli import main  # importable once main() has put src/ on sys.path

    if trace:
        metrics, detail = measure_layers(todo, checker, main, seconds)
    else:
        metrics, detail = measure_end_to_end(inputs, todo, checker, main, seconds)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": sorted(set(checker.problems.values())),
        "digests": checker.digests([(s, o, 0) for s, o in checker.reference]),
        "detail": detail,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def report(r: dict) -> None:
    """Print one workload's metrics, one per line, with failures and the environment."""
    d = r["detail"]
    print(f"# workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  env {json.dumps(r['env'])}")
    for name, m in r["metrics"].items():
        extra = ""
        if name == "cmd_tail_ms":
            extra = f"  (p{d['cmd_tail_percentile']} of {d['cmd_samples_per_pass']} commands per pass," \
                    f" median of {d['cli_passes']} passes)"
        print(f"{r['workload']:14} {name:28} {m['value']:>14.6f} {m['unit']}{extra}")
    ratio = r["failed"] / r["attempted"]
    print(f"{r['workload']:14} {'fail_ratio':28} {ratio:>14.6f} ratio  ({r['failed']} of {r['attempted']})")
    for problem in r["problems"]:
        print(f"FAILED {r['workload']}: {problem}")
    for name, values in r["detail"].get("unstable_counters", {}).items():
        print(f"UNSTABLE {r['workload']}: counter {name} does not repeat: {values}")


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), one row each."""
    rows = []
    for workload in gen.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        rows.append((workload, json.loads(lines[-1])))
    names = list(rows[0][1]["metrics"])
    print("\n# one row per workload; fail_ratio = failed / attempted commands")
    print(f"{'workload':14} " + " ".join(f"{n}[{rows[0][1]['metrics'][n]['unit']}]".rjust(20) for n in names)
          + " fail_ratio".rjust(12))
    for workload, res in rows:
        print(f"{workload:14} " + " ".join(f"{res['metrics'][n]['value']:20.6f}" for n in names)
              + f"{res['failed'] / res['attempted']:12.6f}")
    print(json.dumps({
        "correct": all(res["correct"] for _w, res in rows),
        "attempted": sum(res["attempted"] for _w, res in rows),
        "failed": sum(res["failed"] for _w, res in rows),
        "metrics": {f"{w}/{n}": m for w, res in rows for n, m in res["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "normforge" / "cli.py").is_file():
        print(f"error: no normforge sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
