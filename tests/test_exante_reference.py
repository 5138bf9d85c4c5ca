"""The benchmark's ex-ante reference table, rerun through the CLI.

``bench/exante_reference.json`` holds the exit code and final shade of the
benchmark's ex-ante solves; the benchmark rejects a change whose solves
leave it.  Damped iterated best response amplifies float-level drift in the
bidder far past the 1e-3 shade tolerance, so the same check runs here, where
such a drift fails before the benchmark does.  The file is only read.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from metaprice.cli import main, preset_config

REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "bench" / "exante_reference.json").read_text())

SHAPES = (-0.1, 0.01, 1.0)
GAMMAS = (0.1, 0.25, 0.4, 0.5)
# name -> (shape, gamma, sub-samples per bin)
INSTANCES = {f"gpd_{shape:g}_{gamma:g}": (shape, gamma, 200) for shape in SHAPES for gamma in GAMMAS}
INSTANCES["pareto1_doubled"] = (1.0, 0.25, 400)


def test_reference_covers_every_instance():
    assert set(REFERENCE) == set(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_exante_solve_matches_reference(name, tmp_path):
    shape, gamma, subsamples = INSTANCES[name]
    flags = {"shape": str(shape), "gamma": str(gamma)}
    config = preset_config("exante-pareto", flags)
    outdir = tmp_path / "out"
    if subsamples == config.subsamples:
        argv = ["preset", "exante-pareto", "--shape", flags["shape"], "--gamma", flags["gamma"],
                "--outdir", str(outdir)]
    else:
        config.subsamples = subsamples
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        argv = ["solve", "--config", str(path), "--outdir", str(outdir)]
    ref = REFERENCE[name]
    assert main(argv) == ref["exit"]
    if ref["exit"] == 0:
        shade = json.loads((outdir / "summary.json").read_text())["shade"]
        assert abs(shade - ref["shade"]) <= config.tolerance
