"""Check that a change leaves every CLI artifact byte-identical.

Runs one list of ``metaprice`` CLI commands four times, each command in its
own subprocess: with the working tree's ``src/`` and with ``src/`` as
committed at ``--base`` (extracted with ``git archive``), each under
``OPENBLAS_NUM_THREADS=1`` and ``2``.  Each side is compared with the other
at the same thread count.  The working tree's two thread counts are then
compared with each other; those differences are printed but do not count
towards the exit status (ex-ante runs at 400 sub-samples per bin and the
identity rule's best response to a uniform belief depend on the thread
count, so ``subsamples_400`` and ``diagnose-identity_uniform`` are expected
among them).  The subprocess runs ``metaprice.cli.main`` through a small script that also records every
equilibrium solve the command makes in ``rounds.json`` in its run's
directory: the information the solve builds (the signal-density nodes, one
row of node values per belief and the constraint-density nodes), every
round's rule nodes, shades, ``r_delta`` and ``s_delta`` as the solver builds
the round, and the final rule and shade nodes of a solve that returns, as
``repr`` floats.  Information built outside a solve, as ``diagnose`` builds
it, is not recorded.  So a change that moves any iterate or belief shows, even
when the written artifacts round it away or the trajectories coincide, and
a solve that ends in an infeasible budget still records the rounds it
played.  Every artifact file, exit code, stdout and stderr is compared byte
for byte, with stdout's ``runtime:`` line (wall time) left out.
Prints each difference and exits 1 if the working tree differs from the
base at either thread count, 0 otherwise.  A
differing ``summary.json`` is shown key by key with the base value, the
working tree's value and their relative difference; a differing ``*.csv``
or ``rounds.json`` with how many of its numbers differ and the largest
absolute and relative difference; differing stdout line by line.  Last it
prints each ``src/metaprice`` module's line count at the base and in the
working tree, with the difference and a total; these do not count towards
the exit status.

    python tools/artifact_identity.py [--base REV]

The run list, 34 runs: ``preset exante-pareto`` at shapes -0.1, 0.01 and 1 and gamma
0.1, 0.25, 0.4 and 0.5; ``preset exante-burr`` with its defaults and with
``--c 3 --k 2 --gamma 0.2``; blinded ``solve`` at mu/w sigma 2/2 and 1000/5
with 3 rounds, and at 2/2 with 3 rounds on 30 bins on [0, 7]; an ex-ante truncated normal (mean 5, sd 1.5) at gamma 0.2;
an ex-ante empirical fit of 400 seeded Pareto draws, all inside the window,
at gamma 0.25; ex-ante ``solve`` on 30 bins; the default ex-ante solve (Pareto
shape 1, gamma 0.25) at 50 x 400 sub-samples and undamped (alpha 1) for at
most 12 rounds; ``diagnose`` of the shape-1,
gamma-0.25 rule under the sigma-2 config, under a blinded config with mu sigma 2
and w sigma 5 and under the default (ex-ante) config, of the 30-bin run's
rule under its own config, and of the identity rule (``value = psi`` on the
50 nodes of [0, 10]) under a uniform ``f``; and seven runs that
exit 1: ``preset exante-pareto --gamma abc``, ``preset no-such-preset``,
``preset exante-pareto --sigma 1``, ``solve`` with ``{"bins": 1}``, an
ex-ante ``solve`` with ``mu_sigma`` and ``w_sigma`` set, and ``diagnose``
of a missing rule file and of a rule CSV with a short row.
Every path is relative, so both sides print the same bytes.
Standard library only (the recorder runs beside metaprice);
the file name keeps it out of pytest.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
THREAD_COUNTS = ("1", "2")

CONFIGS = {
    "blinded_2_2.json": {"mode": "blinded", "mu_sigma": 2.0, "w_sigma": 2.0, "max_rounds": 3},
    "blinded_1000_5.json": {"mode": "blinded", "mu_sigma": 1000.0, "w_sigma": 5.0, "max_rounds": 3},
    "truncated_normal.json": {"distribution": {"family": "truncated_normal", "mean": 5.0, "stddev": 1.5},
                              "gamma": 0.2},
    # a relative path, so both sides read their own copy of the same samples
    "empirical.json": {"distribution": {"family": "empirical", "path": "samples.txt"}, "gamma": 0.25},
    "bins_30.json": {"bins": 30},
    # nodes that are not round numbers: 30 bins on [0, 7]
    "blinded_2_2_bins_30_upper_7.json": {"mode": "blinded", "mu_sigma": 2.0, "w_sigma": 2.0, "max_rounds": 3,
                                         "bins": 30, "upper": 7.0},
    # the default ex-ante shape-1, gamma-0.25 solve on rows of 20,000 samples
    "subsamples_400.json": {"subsamples": 400},
    # undamped: each round's rule is the center's fresh answer, so rules jump
    # and many of their pieces move at once
    "undamped_12.json": {"alpha": 1.0, "max_rounds": 12},
}
# configs read only by ``diagnose`` and the runs that exit 1
OTHER_CONFIGS = {"exante.json": {}, "one_bin.json": {"bins": 1},
                 "uniform.json": {"distribution": {"family": "uniform"}},
                 "blinded_2_5.json": {"mode": "blinded", "mu_sigma": 2.0, "w_sigma": 5.0},
                 "exante_mu_sigma.json": {"mode": "exante", "mu_sigma": 2.0, "w_sigma": 2.0, "max_rounds": 2}}

# ``python -c RECORDER ROUNDS_JSON ARGV...``: runs the CLI and writes each
# solve's rounds to ROUNDS_JSON
RECORDER = """
import json, sys
from pathlib import Path
from metaprice import cli, equilibrium

rounds_path, argv = Path(sys.argv[1]), sys.argv[2:]
solve, make_round, solves = cli.find_equilibrium, equilibrium.Round, []
inform = equilibrium.information

def recording_information(*args, **kwargs):
    signal_density, beliefs, constraint_density = out = inform(*args, **kwargs)
    if not solves or "rule" in solves[-1]:
        return out  # outside a solve: diagnose builds its own instance
    solves[-1]["information"] = {
        "signal_density": signal_density.values.tolist(),
        "beliefs": beliefs.tolist(),
        "constraint_density": constraint_density.values.tolist()}
    return out

def recording_round(*args, **kwargs):
    r = make_round(*args, **kwargs)
    solves[-1]["rounds"].append({"rule": r.rule.values.tolist(), "shades": r.shades.tolist(),
                                 "r_delta": r.r_delta, "s_delta": r.s_delta})
    return r

def recording(*args, **kwargs):
    solves.append({"rounds": []})
    trace = solve(*args, **kwargs)
    solves[-1].update(rule=trace.rule.values.tolist(), shades=trace.strategy.tolist())
    return trace

cli.find_equilibrium, equilibrium.Round = recording, recording_round
equilibrium.information = recording_information
code = cli.main(argv)
if solves:
    rounds_path.parent.mkdir(parents=True, exist_ok=True)
    rounds_path.write_text(json.dumps(solves, indent=1) + "\\n")
sys.exit(code)
"""


def pareto_samples(n: int = 400, upper: float = 10.0) -> list[float]:
    """Seeded Pareto(1) draws (generalized Pareto shape 1), the first ``n``
    that lie inside ``[0, upper]``, so the empirical fit drops none."""
    rng, out = random.Random(2015), []
    while len(out) < n:
        x = 1.0 / (1.0 - rng.random()) - 1.0
        if x <= upper:
            out.append(x)
    return out


def default_nodes(bins: int = 50, upper: float = 10.0) -> list[float]:
    """The nodes of ``bins`` bins on [0, ``upper``], computed as ``Grid.mids`` computes them."""
    edges = [i * (upper / bins) for i in range(bins)] + [upper]
    return [0.5 * (a + b) for a, b in zip(edges, edges[1:])]


def run_list() -> list[tuple[str, list[str]]]:
    """``(name, argv)`` pairs; a run named ``n`` writes into ``runs/n``."""
    runs = []
    for shape in ("-0.1", "0.01", "1"):
        for gamma in ("0.1", "0.25", "0.4", "0.5"):
            name = f"exante-pareto_{shape}_{gamma}"
            runs.append((name, ["preset", "exante-pareto", "--shape", shape, "--gamma", gamma,
                                "--outdir", f"runs/{name}"]))
    runs.append(("exante-burr", ["preset", "exante-burr", "--outdir", "runs/exante-burr"]))
    runs.append(("exante-burr_3_2_0.2", ["preset", "exante-burr", "--c", "3", "--k", "2", "--gamma", "0.2",
                                         "--outdir", "runs/exante-burr_3_2_0.2"]))
    for config in CONFIGS:
        name = config.removesuffix(".json")
        runs.append((name, ["solve", "--config", config, "--outdir", f"runs/{name}"]))
    for name, rule, config in (("diagnose", "exante-pareto_1_0.25", "blinded_2_2.json"),
                               ("diagnose-blinded_2_5", "exante-pareto_1_0.25", "blinded_2_5.json"),
                               ("diagnose-exante", "exante-pareto_1_0.25", "exante.json"),
                               ("diagnose-bins_30", "bins_30", "bins_30.json")):
        runs.append((name, ["diagnose", "--rule", f"runs/{rule}/rule.csv", "--config", config]))
    runs.append(("diagnose-identity_uniform",
                 ["diagnose", "--rule", "identity_rule.csv", "--config", "uniform.json"]))
    # bad input: exit 1 with one stderr line, compared like any output
    for name, argv in (("error-gamma-abc", ["preset", "exante-pareto", "--gamma", "abc"]),
                       ("error-no-such-preset", ["preset", "no-such-preset"]),
                       ("error-preset-flag", ["preset", "exante-pareto", "--sigma", "1"]),
                       ("error-one-bin", ["solve", "--config", "one_bin.json"]),
                       ("error-exante-mu-sigma", ["solve", "--config", "exante_mu_sigma.json"])):
        runs.append((name, [*argv, "--outdir", f"runs/{name}"]))
    for name, rule in (("error-missing-rule", "missing.csv"), ("error-short-row", "short_row.csv")):
        runs.append((name, ["diagnose", "--rule", rule, "--config", "exante.json"]))
    return runs


def extract_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_side(src: Path, workdir: Path, threads: str) -> dict[str, dict]:
    """Run every command with ``src`` on the path and ``threads`` BLAS threads;
    returns what each left behind."""
    workdir.mkdir(parents=True)
    for name, config in {**CONFIGS, **OTHER_CONFIGS}.items():
        (workdir / name).write_text(json.dumps(config))
    (workdir / "samples.txt").write_text("".join(f"{x!r}\n" for x in pareto_samples()))
    (workdir / "short_row.csv").write_text("psi,value\n0.1,0.0\n0.3\n0.5,0.2\n")
    (workdir / "identity_rule.csv").write_text("psi,value\n" + "".join(f"{x!r},{x!r}\n" for x in default_nodes()))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
    results = {}
    for name, argv in run_list():
        proc = subprocess.run([sys.executable, "-c", RECORDER, f"runs/{name}/rounds.json", *argv],
                              cwd=workdir, env=env, capture_output=True)
        stdout = b"".join(line for line in proc.stdout.splitlines(keepends=True)
                          if not line.startswith(b"runtime:"))
        outdir = workdir / "runs" / name
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())} if outdir.is_dir() else {}
        results[name] = {"exit code": proc.returncode, "stdout": stdout, "stderr": proc.stderr,
                         **{f"file {fname}": data for fname, data in files.items()}}
        print(f"  {name}: exit {proc.returncode}", file=sys.stderr)
    return results


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def rel(a: float, b: float) -> float:
    return abs(b - a) / abs(a) if a else float("inf")


def spread(old: list, new: list) -> str:
    """How many entries of two number lists differ, and the largest absolute and relative difference."""
    if len(old) != len(new):
        return f"{len(old)} numbers at the base, {len(new)} in the working tree"
    moved = [(a, b) for a, b in zip(old, new) if a != b]
    if not moved:
        return f"all {len(old)} numbers equal; their text differs"
    return (f"{len(moved)} of {len(old)} numbers differ, largest absolute difference "
            f"{max(abs(b - a) for a, b in moved):.3g}, largest relative difference "
            f"{max(rel(a, b) for a, b in moved):.3g}")


def relative(old, new) -> str:
    """Size of a change: the relative difference, or :func:`spread` for number lists."""
    if is_number(old) and is_number(new):
        return f"relative difference {rel(old, new):.3g}"
    if isinstance(old, list) and isinstance(new, list) and all(map(is_number, old + new)):
        return spread(old, new)
    return "not numbers"


def numbers(key: str, data: bytes) -> list:
    """Every number of a CSV artifact below its header, or of ``rounds.json`` in file order."""
    if key.endswith(".csv"):
        return [float(v) for row in list(csv.reader(io.StringIO(data.decode())))[1:] for v in row]

    def walk(value):
        if isinstance(value, (list, dict)):
            for v in value.values() if isinstance(value, dict) else value:
                yield from walk(v)
        elif is_number(value):
            yield value
    return list(walk(json.loads(data)))


def detail(key: str, old: bytes | int | None, new: bytes | int | None, sides: tuple[str, str]) -> list[str]:
    """Lines that show what differs: summary keys with sizes, sizes for CSV
    files and ``rounds.json``, stdout lines; ``sides`` names the old and the new run."""
    if old is None or new is None:
        return [f"present only {sides[1] if old is None else sides[0]}"]
    if key == "file summary.json":
        old, new = json.loads(old), json.loads(new)
        return [f"{k}: {old.get(k)!r} -> {new.get(k)!r} ({relative(old.get(k), new.get(k))})"
                for k in sorted(set(old) | set(new)) if old.get(k) != new.get(k)]
    if key.endswith(".csv") or key == "file rounds.json":
        return [spread(numbers(key, old), numbers(key, new))]
    if key in ("stdout", "stderr"):
        return [line for line in difflib.ndiff(old.decode().splitlines(), new.decode().splitlines())
                if line[:2] in ("- ", "+ ")]
    if key == "exit code":
        return [f"{old} -> {new}"]
    return []


def compare(old: dict[str, dict], new: dict[str, dict], sides: tuple[str, str], label: str) -> int:
    """Print every artifact, exit code and output that differs between two runs of the list; returns how many."""
    diffs = 0
    for name in new:
        for key in sorted(set(new[name]) | set(old[name])):
            if new[name].get(key) != old[name].get(key):
                diffs += 1
                print(f"{label}{name}: {key} differs")
                for line in detail(key, old[name].get(key), new[name].get(key), sides):
                    print(f"    {line}")
    return diffs


def line_counts(src: Path) -> dict[str, int]:
    """Lines of each ``metaprice`` module under ``src``, counted as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in (src / "metaprice").glob("*.py")}


def print_line_counts(old: dict[str, int], new: dict[str, int], base: str) -> None:
    """One row per module and a total: its lines at ``base``, in the working tree, and their difference."""
    print(f"src/metaprice lines: {base}, working tree, difference")
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    for name, at_base, in_tree in rows:
        print(f"  {name:<18} {at_base:>6} {in_tree:>6} {in_tree - at_base:>+6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    ours, theirs = {}, {}
    with tempfile.TemporaryDirectory(prefix="artifact-identity-") as tmp:
        tmp = Path(tmp)
        base_src = extract_src(args.base, tmp / "base")
        base_lines = line_counts(base_src)
        for threads in THREAD_COUNTS:
            print(f"working tree ({REPO / 'src'}), {threads} BLAS thread(s):", file=sys.stderr)
            ours[threads] = run_side(REPO / "src", tmp / f"tree-{threads}", threads)
            print(f"base {args.base}, {threads} BLAS thread(s):", file=sys.stderr)
            theirs[threads] = run_side(base_src, tmp / f"base-run-{threads}", threads)
    diffs = 0
    for threads in THREAD_COUNTS:
        found = compare(theirs[threads], ours[threads], ("at the base", "in the working tree"), f"[{threads}] ")
        print(f"{found} difference(s) over {len(ours[threads])} runs against {args.base} "
              f"under OPENBLAS_NUM_THREADS={threads}")
        diffs += found
    one, two = THREAD_COUNTS
    found = compare(ours[one], ours[two], (f"under {one} thread(s)", f"under {two} thread(s)"), f"[{one} vs {two}] ")
    print(f"{found} difference(s) in the working tree between OPENBLAS_NUM_THREADS={one} and {two} "
          "(not counted in the exit status)")
    print_line_counts(base_lines, line_counts(REPO / "src"), args.base)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
