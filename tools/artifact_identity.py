"""Check that a change leaves every CLI artifact byte-identical.

Runs one list of ``metaprice`` CLI commands twice, each command in its own
subprocess: once with the working tree's ``src/`` and once with ``src/`` as
committed at ``--base`` (extracted with ``git archive``).  The subprocess
runs ``metaprice.cli.main`` through a small script that also records every
equilibrium solve the command makes in ``rounds.json`` in its run's
directory: the information the solve builds (the signal-density nodes, one
row of node values per belief and the constraint-density nodes), every
round's rule nodes, shades, ``r_delta`` and ``s_delta`` as the solver builds
the round, and the final rule and shade nodes of a solve that returns, as
``repr`` floats.  So a change that moves any iterate or belief shows, even
when the written artifacts round it away or the trajectories coincide, and
a solve that ends in an infeasible budget still records the rounds it
played.  Every artifact file, exit code, stdout and stderr is compared byte
for byte, with stdout's ``runtime:`` line (wall time) left out.
Prints each difference and exits 1 if there is one, 0 otherwise.  A
differing ``summary.json`` is shown key by key with the base value, the
working tree's value and their relative difference; differing stdout is
shown line by line.

    python tools/artifact_identity.py [--base REV]

The run list: ``preset exante-pareto`` at shapes -0.1, 0.01 and 1 and gamma
0.1, 0.25, 0.4 and 0.5; ``preset exante-burr`` with its defaults and with
``--c 3 --k 2 --gamma 0.2``; blinded ``solve`` at mu/w sigma 2/2 and 1000/5
with 3 rounds; an ex-ante truncated normal (mean 5, sd 1.5) at gamma 0.2;
an ex-ante empirical fit of 400 seeded Pareto draws, all inside the window,
at gamma 0.25; ex-ante ``solve`` on 30 bins; ``diagnose`` of the shape-1,
gamma-0.25 rule under the sigma-2 config and under the default (ex-ante)
config, and of the 30-bin run's rule under its own config; and six runs that
exit 1: ``preset exante-pareto --gamma abc``, ``preset no-such-preset``,
``preset exante-pareto --sigma 1``, ``solve`` with ``{"bins": 1}``, and
``diagnose`` of a missing rule file and of a rule CSV with a short row.
Every path is relative, so both sides print the same bytes.
Standard library only (the recorder runs beside metaprice and uses its numpy);
the file name keeps it out of pytest.
"""

from __future__ import annotations

import argparse
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

CONFIGS = {
    "blinded_2_2.json": {"mode": "blinded", "mu_sigma": 2.0, "w_sigma": 2.0, "max_rounds": 3},
    "blinded_1000_5.json": {"mode": "blinded", "mu_sigma": 1000.0, "w_sigma": 5.0, "max_rounds": 3},
    "truncated_normal.json": {"distribution": {"family": "truncated_normal", "mean": 5.0, "stddev": 1.5},
                              "gamma": 0.2},
    # a relative path, so both sides read their own copy of the same samples
    "empirical.json": {"distribution": {"family": "empirical", "path": "samples.txt"}, "gamma": 0.25},
    "bins_30.json": {"bins": 30},
}
# configs read only by ``diagnose`` and the runs that exit 1
OTHER_CONFIGS = {"exante.json": {}, "one_bin.json": {"bins": 1}}

# ``python -c RECORDER ROUNDS_JSON ARGV...``: runs the CLI and writes each
# solve's rounds to ROUNDS_JSON
RECORDER = """
import json, sys
from pathlib import Path
import numpy as np
from metaprice import cli, equilibrium

rounds_path, argv = Path(sys.argv[1]), sys.argv[2:]
solve, make_round, solves = cli.find_equilibrium, equilibrium.Round, []
inform = equilibrium.information

def recording_information(*args, **kwargs):
    signal_density, beliefs, constraint_density = out = inform(*args, **kwargs)
    # a list of Tabulated beliefs or an array of node rows: the same numbers
    solves[-1]["information"] = {
        "signal_density": signal_density.values.tolist(),
        "beliefs": np.asarray([getattr(b, "values", b) for b in beliefs]).tolist(),
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
    solves[-1].update(rule=trace.rule.values.tolist(),
                      shades=trace.strategy.shade_at(trace.rule.grid.mids).tolist())
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
                               ("diagnose-exante", "exante-pareto_1_0.25", "exante.json"),
                               ("diagnose-bins_30", "bins_30", "bins_30.json")):
        runs.append((name, ["diagnose", "--rule", f"runs/{rule}/rule.csv", "--config", config]))
    # bad input: exit 1 with one stderr line, compared like any output
    for name, argv in (("error-gamma-abc", ["preset", "exante-pareto", "--gamma", "abc"]),
                       ("error-no-such-preset", ["preset", "no-such-preset"]),
                       ("error-preset-flag", ["preset", "exante-pareto", "--sigma", "1"]),
                       ("error-one-bin", ["solve", "--config", "one_bin.json"])):
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


def run_side(src: Path, workdir: Path) -> dict[str, dict]:
    """Run every command with ``src`` on the path; returns what each left behind."""
    workdir.mkdir(parents=True)
    for name, config in {**CONFIGS, **OTHER_CONFIGS}.items():
        (workdir / name).write_text(json.dumps(config))
    (workdir / "samples.txt").write_text("".join(f"{x!r}\n" for x in pareto_samples()))
    (workdir / "short_row.csv").write_text("psi,value\n0.1,0.0\n0.3\n0.5,0.2\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
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


def relative(old, new) -> str:
    """Size of a change: the relative difference, or for equal-length number
    lists how many entries moved and the largest relative difference."""
    def rel(a, b):
        return abs(b - a) / abs(a) if a else float("inf")

    def is_number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if is_number(old) and is_number(new):
        return f"relative difference {rel(old, new):.3g}"
    if (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
            and all(map(is_number, old + new))):
        moved = [rel(a, b) for a, b in zip(old, new) if a != b]
        return f"{len(moved)} of {len(old)} entries differ, largest relative difference {max(moved):.3g}"
    return "not numbers"


def detail(key: str, old: bytes | int | None, new: bytes | int | None) -> list[str]:
    """Lines that show what differs: summary keys with sizes, stdout lines."""
    if old is None or new is None:
        return [f"present only {'in the working tree' if old is None else 'at the base'}"]
    if key == "file summary.json":
        old, new = json.loads(old), json.loads(new)
        return [f"{k}: {old.get(k)!r} -> {new.get(k)!r} ({relative(old.get(k), new.get(k))})"
                for k in sorted(set(old) | set(new)) if old.get(k) != new.get(k)]
    if key in ("stdout", "stderr"):
        return [line for line in difflib.ndiff(old.decode().splitlines(), new.decode().splitlines())
                if line[:2] in ("- ", "+ ")]
    if key == "exit code":
        return [f"{old} -> {new}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-identity-") as tmp:
        tmp = Path(tmp)
        print(f"working tree ({REPO / 'src'}):", file=sys.stderr)
        ours = run_side(REPO / "src", tmp / "tree")
        print(f"base {args.base}:", file=sys.stderr)
        theirs = run_side(extract_src(args.base, tmp / "base"), tmp / "base-run")
    diffs = 0
    for name in ours:
        for key in sorted(set(ours[name]) | set(theirs[name])):
            new, old = ours[name].get(key), theirs[name].get(key)
            if new != old:
                diffs += 1
                print(f"{name}: {key} differs")
                for line in detail(key, old, new):
                    print(f"    {line}")
    print(f"{diffs} difference(s) over {len(ours)} runs against {args.base}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
