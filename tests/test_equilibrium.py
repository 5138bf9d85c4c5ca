"""Damped iterated best response: fixed points, traces, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metaprice
from metaprice import blinding, center
from metaprice.bidder import KeptScan, Strategy, best_response_constant, shade_objective
from metaprice.center import collected, payment_rule, solve_center
from metaprice.distributions import gpd, tabulate_pdf
from metaprice.equilibrium import EquilibriumConfig, EquilibriumTrace, Instance, diagnose, find_equilibrium, format_report
from metaprice.grid import Tabulated, make_grid

GRID = make_grid(0, 10, 50, 200)
SMALL = make_grid(0, 10, 20, 50)
F_PARETO = gpd(0, 1, 1.0, 0, 10)
F_TAB = tabulate_pdf(F_PARETO, GRID)


class TestConfig:
    def test_defaults(self):
        cfg = EquilibriumConfig()
        assert cfg.mode == "exante"
        assert cfg.max_rounds == 50
        assert cfg.tolerance == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            EquilibriumConfig(alpha=0.0)
        with pytest.raises(ValueError):
            EquilibriumConfig(alpha=1.5)
        with pytest.raises(ValueError):
            EquilibriumConfig(max_rounds=0)
        with pytest.raises(ValueError):
            EquilibriumConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            EquilibriumConfig(mode="blinded")  # sigmas missing
        with pytest.raises(ValueError):
            EquilibriumConfig(mode="blinded", mu_sigma=1.0, w_sigma=-2.0)

    @pytest.mark.parametrize("widths, unread", [
        ({"mu_sigma": 2.0}, "['mu_sigma']"),
        ({"w_sigma": 2.0}, "['w_sigma']"),
        ({"mu_sigma": 2.0, "w_sigma": 5.0}, "['mu_sigma', 'w_sigma']"),
    ])
    def test_exante_takes_no_blinding_width(self, widths, unread):
        # ex ante nothing is blinded: a width would be recorded but never read
        message = f"exante mode reads neither mu_sigma nor w_sigma, got {unread}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EquilibriumConfig(mode="exante", **widths)


def test_vcg_fixed_point_in_one_round():
    cfg = EquilibriumConfig(mode="exante", gamma=0.0)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    assert trace.converged
    assert trace.n_rounds == 1
    assert np.all(trace.rule.values == 0.0)
    assert trace.strategy.shape == (GRID.bins,)
    assert np.all(trace.strategy == 0.0)


def test_exante_converges_and_reports_small_shade():
    cfg = EquilibriumConfig(mode="exante", gamma=0.25)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    assert trace.converged
    assert trace.n_rounds <= 50
    # ex ante the shade profile is one shade at every node
    assert np.all(trace.strategy == trace.strategy[0])
    assert 0.05 <= trace.strategy[0] <= 0.15
    last = trace.rounds[-1]
    assert last.r_delta <= cfg.tolerance
    assert last.s_delta <= cfg.tolerance


def test_intermediate_rules_satisfy_envelope_and_budget():
    cfg = EquilibriumConfig(mode="exante", gamma=0.25)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    sbar = 0.0
    for rnd in trace.rounds:
        vals = rnd.rule.values
        assert np.all(vals >= 0.0)
        assert np.all(vals <= GRID.mids)
        # BB binds at the damped strategy the round was solved against
        got = collected(rnd.rule, sbar, F_TAB, GRID)
        assert got >= trace.instance.budget.k - 1e-9
        sbar = (1 - cfg.alpha) * sbar + cfg.alpha * rnd.shades[0]
    # the damped final rule stays inside the envelope (convexity)
    assert np.all(trace.rule.values <= GRID.mids)


def test_exante_round_shade_is_the_constant_best_response():
    cfg = EquilibriumConfig(mode="exante", gamma=0.25)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    for rnd in trace.rounds:
        assert rnd.shades.shape == (1,)
        assert rnd.shades[0] == best_response_constant(rnd.rule, F_TAB, GRID)


@pytest.mark.parametrize("f, config", [
    (gpd(0, 1, 0.01, 0, 10), EquilibriumConfig(mode="exante", gamma=0.25)),
    (F_PARETO, EquilibriumConfig(mode="blinded", gamma=0.25, mu_sigma=2.0, w_sigma=2.0, max_rounds=3)),
], ids=["exante_shape_0.01", "blinded_sigma_2"])
def test_each_rounds_shades_are_a_fresh_best_response(f, config):
    # a solve keeps its bidder's scan from round to round; each round's shades
    # must still be the bytes of a best response computed afresh for its rule
    trace = find_equilibrium(f, config, GRID)
    assert trace.n_rounds > 1
    for rnd in trace.rounds:
        assert rnd.shades.tobytes() == KeptScan(trace.instance.bidder.beliefs, GRID).respond(rnd.rule)[0].tobytes()


def test_blinded_solve_builds_posteriors_once(monkeypatch):
    # neither f nor mu_sigma changes within a solve, so neither do the posteriors
    calls = []
    original = blinding._posteriors

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(blinding, "_posteriors", counting)
    cfg = EquilibriumConfig(mode="blinded", gamma=0.25, mu_sigma=2.0, w_sigma=2.0, max_rounds=3)
    trace = find_equilibrium(F_PARETO, cfg, SMALL)
    assert trace.n_rounds == 3
    assert len(calls) == 1


def test_a_trace_reads_its_config_from_its_instance():
    cfg = EquilibriumConfig(mode="exante", gamma=0.25, max_rounds=2)
    trace = find_equilibrium(F_PARETO, cfg, SMALL)
    assert trace.instance.config is cfg
    assert "config" not in {fld.name for fld in dataclasses.fields(EquilibriumTrace)}


def test_exante_diagnose_reads_its_instances_table_and_scan(monkeypatch):
    # an ex-ante instance holds f's table and the one-belief scan over it, so
    # building it and scoring a rule tabulate f once and build one scan
    scans, tables = [], []
    init, normalized = KeptScan.__init__, Tabulated.normalized
    monkeypatch.setattr(KeptScan, "__init__", lambda self, *args: scans.append(self) or init(self, *args))
    monkeypatch.setattr(Tabulated, "normalized", lambda self: tables.append(self) or normalized(self))
    instance = Instance.build(F_PARETO, EquilibriumConfig(gamma=0.25), GRID)
    diagnose(payment_rule(GRID, np.where(GRID.mids >= 4.0, GRID.mids, 0.0)), instance)
    assert scans == [instance.bidder]
    assert len(tables) == 1


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that logs each call's arguments; returns the log."""
    calls, original = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_exante_diagnose_responds_once(monkeypatch):
    # the one response gives both the best-response shade and the deviation incentive
    responses = counting(monkeypatch, KeptScan, "respond")
    instance = Instance.build(F_PARETO, EquilibriumConfig(gamma=0.25), GRID)
    diagnose(payment_rule(GRID, np.where(GRID.mids >= 4.0, GRID.mids, 0.0)), instance)
    assert [args[0] for args in responses] == [instance.bidder]


def test_blinded_diagnose_builds_no_budget(monkeypatch):
    # the prior side needs f's table and one scan over it, not an ex-ante
    # instance with its budget: no k_vcg quadrature, one new one-belief scan
    instance = Instance.build(F_PARETO, EquilibriumConfig(mode="blinded", mu_sigma=2.0, w_sigma=2.0), GRID)
    quadratures = counting(monkeypatch, center, "k_vcg")
    scans = counting(monkeypatch, KeptScan, "__init__")
    responses = counting(monkeypatch, KeptScan, "respond")
    diagnose(payment_rule(GRID, np.where(GRID.mids >= 4.0, GRID.mids, 0.0)), instance)
    assert quadratures == []
    assert [args[1].shape for args in scans] == [(1, GRID.bins)]
    assert len(responses) == 2 and responses[0][0] is instance.bidder


def test_diagnose_scores_the_prior_side_against_an_exante_bidder():
    # blinded or not, the best response, what it retains and what the budget
    # row collects are read against f itself, with the bytes of a fresh table and scan
    rule = payment_rule(GRID, np.where(GRID.mids >= 4.0, GRID.mids, 0.0))
    s = best_response_constant(rule, F_TAB, GRID)
    expected = {"best_response_shade": s, "retained_at_best_response": shade_objective(s, rule, F_TAB, GRID),
                "collected_at_truth": collected(rule, 0.0, F_TAB, GRID),
                "collected_at_strategy": collected(rule, s, F_TAB, GRID)}
    for cfg in (EquilibriumConfig(gamma=0.25), EquilibriumConfig(mode="blinded", mu_sigma=2.0, w_sigma=2.0)):
        report = diagnose(rule, Instance.build(F_PARETO, cfg, GRID))
        assert {key: report[key].hex() for key in expected} == {key: v.hex() for key, v in expected.items()}


def test_trace_is_deterministic():
    cfg = EquilibriumConfig(mode="exante", gamma=0.25)
    t1 = find_equilibrium(F_PARETO, cfg, GRID)
    t2 = find_equilibrium(F_PARETO, cfg, GRID)
    assert t1.n_rounds == t2.n_rounds
    assert t1.strategy.tobytes() == t2.strategy.tobytes()
    for a, b in zip(t1.rounds, t2.rounds):
        assert np.array_equal(a.rule.values, b.rule.values)
        assert a.s_delta == b.s_delta


def test_approximate_mutual_best_response_at_convergence():
    cfg = EquilibriumConfig(mode="exante", gamma=0.25)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    assert trace.converged
    s_bar = float(trace.strategy[0])
    r_bar = trace.rule
    # bidder side: the reported shade is within tolerance of optimal
    s_opt = best_response_constant(r_bar, F_TAB, GRID)
    j_bar = shade_objective(s_bar, r_bar, F_TAB, GRID)
    j_opt = shade_objective(s_opt, r_bar, F_TAB, GRID)
    assert j_bar - j_opt <= 5 * cfg.tolerance
    # center side: re-solving against the final strategy improves the
    # objective by at most a tolerance-level amount
    masses = F_TAB.bin_masses()
    re_solved = solve_center(F_TAB, F_TAB, s_bar, trace.instance.budget, GRID)
    obj_bar = float(np.dot(masses, r_bar.values))
    obj_opt = float(np.dot(masses, re_solved.values))
    slack = collected(r_bar, s_bar, F_TAB, GRID) - trace.instance.budget.k
    assert obj_bar - obj_opt <= 5 * cfg.tolerance + max(slack, 0.0)


def test_nonconvergence_reported_not_raised():
    cfg = EquilibriumConfig(mode="exante", gamma=0.25, max_rounds=3, alpha=0.9)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    assert not trace.converged
    assert trace.n_rounds == 3
    assert trace.rule is not None


def test_blinded_equilibrium_shades_increase_with_profit():
    # informative blinding (sigma=2): the damped strategy rises with the
    # signal once the charged band spans the upper range
    cfg = EquilibriumConfig(mode="blinded", gamma=0.2, mu_sigma=2.0, w_sigma=2.0,
                            alpha=0.2, tolerance=0.05)
    trace = find_equilibrium(F_PARETO, cfg, SMALL)
    shades = trace.strategy
    assert np.all(shades >= 0.0)
    third = len(shades) // 3
    assert shades[-third:].mean() > shades[:third].mean()


def test_blinded_converges_at_loose_tolerance():
    cfg = EquilibriumConfig(mode="blinded", gamma=0.1, mu_sigma=5.0, w_sigma=5.0,
                            alpha=0.2, tolerance=0.05)
    trace = find_equilibrium(F_PARETO, cfg, SMALL)
    assert trace.converged
    assert trace.rounds[-1].r_delta <= 0.05


def test_format_report_mentions_rounds_and_shade():
    cfg = EquilibriumConfig(mode="exante", gamma=0.1)
    trace = find_equilibrium(F_PARETO, cfg, GRID)
    text = format_report(trace)
    assert f"rounds: {trace.n_rounds}" in text
    assert "final shade" in text
    assert "r_delta" in text


# prints the rounds of each solve whose EquilibriumConfig keywords the JSON
# list in argv[1] gives, on a grid of argv[2] sub-samples per bin, and its
# result, as the hex of their bytes
RECORD_ROUNDS = """
import json, sys
from metaprice.distributions import gpd
from metaprice.equilibrium import EquilibriumConfig, find_equilibrium
from metaprice.grid import make_grid

grid, f = make_grid(0, 10, 50, int(sys.argv[2])), gpd(0, 1, 1.0, 0, 10)
for kwargs in json.loads(sys.argv[1]):
    trace = find_equilibrium(f, EquilibriumConfig(**kwargs), grid)
    for rnd in trace.rounds:
        print(rnd.rule.values.tobytes().hex(), rnd.shades.tobytes().hex(), rnd.r_delta.hex(), rnd.s_delta.hex())
    print(trace.rule.values.tobytes().hex(), trace.strategy.tobytes().hex())
"""


def rounds_under_one_and_two_blas_threads(configs: list[dict], subsamples: int = 200) -> list[str]:
    """What RECORD_ROUNDS prints for ``configs`` under one BLAS thread and under two."""
    src = str(Path(metaprice.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", RECORD_ROUNDS, json.dumps(configs), str(subsamples)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_rounds_do_not_depend_on_the_blas_thread_count():
    # a multi-threaded BLAS may sum a matrix product in another order; a
    # blinded density and its posteriors take no such product, and these
    # blinded rounds and this ex-ante solve come out the same bytes either way
    outputs = rounds_under_one_and_two_blas_threads(
        [{"mode": "blinded", "mu_sigma": 2.0, "w_sigma": 2.0, "max_rounds": 10},
         {"mode": "blinded", "mu_sigma": 10.0, "w_sigma": 10.0, "max_rounds": 1},
         {"gamma": 0.25}])
    # ten sigma-2 rounds, one sigma-10 round, at least one ex-ante round, each with its result
    assert len(outputs[0].splitlines()) >= 10 + 1 + 1 + 1 + 1 + 1
    assert outputs[0] == outputs[1]


@pytest.mark.xfail(strict=False, raises=AssertionError,
                   reason="at 400 sub-samples the bidder's per-belief product matrix @ weights depends on "
                          "the BLAS thread count from round 2 on (ROADMAP, Failing checks; item 6 removes it)")
def test_exante_rounds_at_400_subsamples_do_not_depend_on_the_blas_thread_count():
    outputs = rounds_under_one_and_two_blas_threads([{"max_rounds": 2}], subsamples=400)
    # two rounds and the result
    assert len(outputs[0].splitlines()) == 2 + 1
    assert outputs[0] == outputs[1]
