"""Blinded solves pinned round by round.

``tests/blinded_reference.json`` holds two blinded ``find_equilibrium``
runs at gamma 0.25 on the 50 x 200 grid, capped at 3 rounds: mu/w sigma
2/2 and 1000/5.  For every round it stores ``r_delta``, ``s_delta``, the
center's rule nodes and the bidder's shade nodes, and for the run the final
damped rule and shade nodes.  Everything is compared to 1e-12 absolute, so a
refactor of the blinded loop that moves any iterate fails here.

Regenerate the file with ``PYTHONPATH=src python tests/test_blinded_reference.py``.
A regeneration changes what the solver is held to: state it, with the
reason and the size of the drift, in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from metaprice.distributions import gpd
from metaprice.equilibrium import EquilibriumConfig, find_equilibrium
from metaprice.grid import make_grid

REFERENCE_PATH = Path(__file__).resolve().parent / "blinded_reference.json"
GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)
# name -> (mu_sigma, w_sigma)
CASES = {"sigma_2_2": (2.0, 2.0), "sigma_1000_5": (1000.0, 5.0)}
ATOL = 1e-12


def solve(mu_sigma: float, w_sigma: float) -> dict:
    cfg = EquilibriumConfig(mode="blinded", gamma=0.25, mu_sigma=mu_sigma, w_sigma=w_sigma,
                            max_rounds=3)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    return {
        "rounds": [{"r_delta": rnd.r_delta, "s_delta": rnd.s_delta,
                    "rule": rnd.rule.values.tolist(),
                    "shades": rnd.shades.tolist()}
                   for rnd in trace.rounds],
        "rule": trace.rule.values.tolist(),
        "shades": trace.strategy.tolist(),
    }


def test_reference_covers_every_case():
    assert set(json.loads(REFERENCE_PATH.read_text())) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_blinded_solve_matches_reference(name):
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    got = solve(*CASES[name])
    assert len(got["rounds"]) == len(ref["rounds"])
    for i, (g, r) in enumerate(zip(got["rounds"], ref["rounds"]), 1):
        assert g["r_delta"] == pytest.approx(r["r_delta"], rel=0, abs=ATOL), f"round {i}"
        assert g["s_delta"] == pytest.approx(r["s_delta"], rel=0, abs=ATOL), f"round {i}"
        np.testing.assert_allclose(g["rule"], r["rule"], rtol=0, atol=ATOL, err_msg=f"round {i} rule")
        np.testing.assert_allclose(g["shades"], r["shades"], rtol=0, atol=ATOL, err_msg=f"round {i} shades")
    np.testing.assert_allclose(got["rule"], ref["rule"], rtol=0, atol=ATOL, err_msg="damped rule")
    np.testing.assert_allclose(got["shades"], ref["shades"], rtol=0, atol=ATOL, err_msg="damped shades")


if __name__ == "__main__":
    table = {name: solve(*sigmas) for name, sigmas in CASES.items()}
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
