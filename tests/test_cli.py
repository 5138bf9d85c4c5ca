"""CLI: presets, artifact files, exit codes, byte-level determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metaprice import bidder, blinding, cli
from metaprice.bidder import KeptScan, Strategy, deviation_incentive, regret_at_truth
from metaprice.blinding import blind
from metaprice.center import PaymentRule, _greedy_fill, collected, constraint_weights, payment_rule
from metaprice.cli import ExperimentConfig, _write_csv, list_presets, main, preset_config, read_rule_csv
from metaprice.distributions import gpd, tabulate_pdf
from metaprice.equilibrium import EquilibriumConfig, Instance, find_equilibrium
from metaprice.grid import Tabulated, make_grid


def write_config(tmp_path, **overrides):
    cfg = {
        "distribution": {"family": "gpd", "location": 0, "scale": 1, "shape": 1.0},
        "mode": "exante",
        "gamma": 0.25,
        "outdir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_list_presets_mentions_the_sweeps(capsys):
    assert main(["list-presets"]) == 0
    text = capsys.readouterr().out
    assert "exante-pareto" in text
    assert "--gamma {0.25,0.5,0.75}" in text
    assert "exante-burr" in text
    assert "blinded-pareto" in text
    assert "--sigma" in text and "1000" in text
    assert "--shape" in text and "-0.1" in text


def test_list_presets_function_nonempty():
    assert list_presets().strip()


def test_solve_writes_all_artifacts(tmp_path):
    config = write_config(tmp_path)
    assert main(["solve", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["ratio.csv", "rule.csv", "strategy.csv", "summary.json"]
    assert open(out / "rule.csv").readline().strip() == "psi,payment_above_critical"
    assert open(out / "strategy.csv").readline().strip() == "psi,shade"
    assert open(out / "ratio.csv").readline().strip() == "psi,ratio"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["gamma"] == 0.25
    assert 0.05 <= summary["shade"] <= 0.15
    assert summary["rounds"] <= 50
    assert len(summary["shade_nodes"]) == summary["bins"]


def test_experiment_defaults_are_the_equilibrium_defaults():
    experiment = ExperimentConfig()
    shared = [f.name for f in dataclasses.fields(EquilibriumConfig)]
    assert set(shared) <= {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name in shared:
        assert getattr(experiment, name) == getattr(EquilibriumConfig(), name), name


def test_summary_records_every_config_field_but_outdir(tmp_path):
    config = write_config(tmp_path, alpha=0.3, max_rounds=2, bins=20, subsamples=50)
    main(["solve", "--config", str(config)])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    expected = dataclasses.asdict(ExperimentConfig.from_json(config))
    del expected["outdir"]
    assert {key: summary[key] for key in expected} == expected
    assert "outdir" not in summary


def test_identical_config_gives_byte_identical_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config_a = write_config(tmp_path, outdir=str(out_a))
    main(["solve", "--config", str(config_a)])
    config_b = tmp_path / "config_b.json"
    config_b.write_text(json.dumps({**json.loads(config_a.read_text()), "outdir": str(out_b)}))
    main(["solve", "--config", str(config_b)])
    for name in ("rule.csv", "strategy.csv", "ratio.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    assert sa == sb


def test_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"distribution": {"family": "nope"}, "outdir": str(tmp_path / "o")}))
    assert main(["solve", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing)]) == 1
    gamma_bad = write_config(tmp_path, gamma=1.5)
    assert main(["solve", "--config", str(gamma_bad)]) == 1
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"no_such_key": 1}))
    assert main(["solve", "--config", str(unknown_key)]) == 1
    capsys.readouterr()
    # null values and grid counts that are not whole numbers pass the key
    # check and fail where they are used, instead of being truncated or parsed
    for bad_value in ({"bins": None}, {"gamma": None}, {"distribution": {"family": "gpd", "shape": None}},
                      {"bins": 50.9}, {"subsamples": 200.5}, {"bins": "50"},
                      {"max_rounds": 2.5}, {"max_rounds": "3"}):
        assert main(["solve", "--config", str(write_config(tmp_path, **bad_value))]) == 1, bad_value
        assert "config error" in capsys.readouterr().err, bad_value
    # a key the distribution family does not take is named, not ignored
    typo = write_config(tmp_path, distribution={"family": "gpd", "shap": -0.1})
    assert main(["solve", "--config", str(typo)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'shap'" in err
    for text, message in (("[1, 2]", "config must be a JSON object, got list"),
                          ('{"max_rounds": 1e400}', "max_rounds must be a whole number, got inf"),
                          ('{"distribution": [["family", "uniform"]]}', "distribution must be a JSON object, got list"),
                          ('{"distribution": "gpd"}', "distribution must be a JSON object, got str"),
                          ('{"distribution": null}', "distribution must be a JSON object, got NoneType"),
                          # a NaN parameter is named by the family that owns it
                          ('{"distribution": {"family": "truncated_normal", "mean": NaN}}',
                           "normal mean must be finite, got nan"),
                          # an outdir that is no path is refused at set-up, not after the rounds
                          ('{"outdir": 5, "max_rounds": 2}', "expected str, bytes or os.PathLike object, not int")):
        raw = tmp_path / "raw.json"
        raw.write_text(text)
        assert main(["solve", "--config", str(raw)]) == 1, text
        assert f"config error: {message}" in capsys.readouterr().err, text
    assert main(["preset", "exante-pareto", "--shape", "nan", "--outdir", str(tmp_path / "p")]) == 1
    assert "config error: generalized Pareto shape must be finite, got nan" in capsys.readouterr().err
    # a negative lower bound is refused at set-up, by name, before any round
    assert main(["solve", "--config", str(write_config(tmp_path, lower=-1.0))]) == 1
    assert "config error: lower must be >= 0, got -1.0" in capsys.readouterr().err
    # an outdir under a regular file is refused before any round, and nothing is made
    afile = tmp_path / "afile"
    afile.write_text("")
    before = sorted(tmp_path.rglob("*"))
    raw.write_text(json.dumps({"outdir": str(afile / "out"), "max_rounds": 2}))
    assert main(["solve", "--config", str(raw)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: outdir {afile / 'out'}: {afile} is not a directory\n"
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == ""
    # a whole-number float is a round count
    assert main(["solve", "--config", str(write_config(tmp_path, max_rounds=3.0))]) in (0, 3)
    assert "max_rounds: 3\n" in capsys.readouterr().out
    # ex ante nothing is blinded: solve and diagnose name a blinding width, not ignore it, and write nothing
    widths = write_config(tmp_path, mu_sigma=2.0, w_sigma=2.0, max_rounds=2, outdir=str(tmp_path / "widths"))
    grid = make_grid(0, 10, 50, 200)
    _write_csv(tmp_path / "rule.csv", ["psi", "payment_above_critical"], zip(grid.mids, 0.5 * grid.mids))
    for argv in (["solve", "--config", str(widths)],
                 ["diagnose", "--rule", str(tmp_path / "rule.csv"), "--config", str(widths)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == ("config error: exante mode reads neither mu_sigma nor w_sigma, "
                                "got ['mu_sigma', 'w_sigma']\n"), argv
    assert not (tmp_path / "widths").exists()


@pytest.mark.parametrize("overrides, keys", [
    ({"gamma": True}, "['gamma']"),
    ({"upper": True}, "['upper']"),
    ({"max_rounds": True, "subsamples": True}, "['max_rounds', 'subsamples']"),
    ({"distribution": {"family": "gpd", "shape": False}}, "['shape']"),
], ids=["gamma", "upper", "max_rounds-subsamples", "distribution-shape"])
def test_boolean_config_values_are_config_errors(tmp_path, capsys, overrides, keys):
    # JSON true is not the number 1: no key takes a boolean, so each run exits 1 and writes nothing
    assert main(["solve", "--config", str(write_config(tmp_path, **overrides))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: no config key takes a boolean, got one for {keys}\n"
    assert not (tmp_path / "out").exists()


BLINDED_NO_MASS = {"mode": "blinded", "mu_sigma": 1e-6, "w_sigma": 1e-6, "max_rounds": 2}
NORMAL_NO_MASS = {"distribution": {"family": "truncated_normal", "mean": 5, "stddev": 1e-9}}


@pytest.mark.parametrize("command, config", [
    ("solve", BLINDED_NO_MASS), ("solve", NORMAL_NO_MASS), ("preset", None),
    ("diagnose", BLINDED_NO_MASS), ("diagnose", NORMAL_NO_MASS),
], ids=["solve-blinded", "solve-normal", "preset-blinded", "diagnose-blinded", "diagnose-normal"])
def test_setup_without_mass_is_a_config_error(tmp_path, command, config):
    # inputs that leave the solve's set-up with no mass are reported like any
    # other bad input: one line, exit 1, nothing written
    grid = make_grid(0, 10, 50, 200)
    _write_csv(tmp_path / "rule.csv", ["psi", "payment_above_critical"], zip(grid.mids, grid.mids))
    (tmp_path / "config.json").write_text(json.dumps({**(config or {}), "outdir": "out"}))
    argv = {"solve": ["solve", "--config", "config.json"],
            "preset": ["preset", "blinded-pareto", "--sigma", "1e-6", "--outdir", "out"],
            "diagnose": ["diagnose", "--rule", "rule.csv", "--config", "config.json"]}[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "metaprice.cli", *argv], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_an_empirical_config_without_a_path_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, distribution={"family": "empirical"})
    assert main(["solve", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "config error: empirical distribution needs a 'path' to a sample file\n"
    assert not (tmp_path / "out").exists()


def test_uniform_solve_writes_its_artifacts(tmp_path):
    config = write_config(tmp_path, distribution={"family": "uniform"})
    assert main(["solve", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["ratio.csv", "rule.csv", "strategy.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["distribution"] == {"family": "uniform"}
    assert summary["k_vcg"] == pytest.approx(5.0, rel=1e-12)  # the mean of a flat density on [0, 10]
    # the reported rule is the damped average, which falls a little short of the budget
    assert 0.99 * summary["k"] <= summary["collected"] <= summary["k"]


def test_infeasible_budget_exits_two(tmp_path, capsys):
    # profits concentrated at one point: once shading starts, the required
    # collection exceeds what the envelope can raise
    samples = tmp_path / "samples.txt"
    samples.write_text("\n".join(["5.0"] * 200))
    config = write_config(
        tmp_path,
        distribution={"family": "empirical", "path": str(samples)},
        gamma=0.9,
    )
    assert main(["solve", "--config", str(config)]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_samples_outside_the_window_are_reported_on_stderr(tmp_path, capsys):
    inside, outside = tmp_path / "inside.txt", tmp_path / "outside.txt"
    inside.write_text("1.0\n2.0\n2.5\n")
    outside.write_text("1.0\n50.0\n2.0\n2.5\n-3.0\n")
    for samples in (inside, outside):
        config = write_config(tmp_path, distribution={"family": "empirical", "path": str(samples)},
                              max_rounds=2, outdir=str(tmp_path / samples.stem))
        assert main(["solve", "--config", str(config)]) in (0, 3)
    assert capsys.readouterr().err == "warning: dropped 2 of 5 samples outside [0, 10]\n"
    # the dropped samples change nothing the solve writes
    for name in ("rule.csv", "strategy.csv", "ratio.csv"):
        assert (tmp_path / "inside" / name).read_bytes() == (tmp_path / "outside" / name).read_bytes(), name


def test_non_finite_samples_are_a_config_error(tmp_path, capsys):
    # nan and the infinities are refused at their line, not dropped as outside the window
    samples = tmp_path / "samples.txt"
    samples.write_text("1.0\nnan\n2.5\ninf\n-inf\n3.0\n")
    config = write_config(tmp_path, distribution={"family": "empirical", "path": str(samples)})
    assert main(["solve", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"config error: {samples}:2: not a finite number: 'nan'\n"
    assert not (tmp_path / "out").exists()


def test_a_sample_file_in_another_notation_is_a_config_error(tmp_path, capsys):
    # float() reads 1_5 as 15, which the fit then dropped as outside the window
    samples = tmp_path / "samples.txt"
    samples.write_text("1_5\n2.0\n")
    config = write_config(tmp_path, distribution={"family": "empirical", "path": str(samples)})
    assert main(["solve", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"config error: {samples}:1: not a number: '1_5'\n"
    assert not (tmp_path / "out").exists()


NON_FINITE_PARAMETERS = [
    ({"family": "gpd", "shape": math.nan}, "generalized Pareto shape must be finite, got nan"),
    ({"family": "gpd", "shape": math.inf}, "generalized Pareto shape must be finite, got inf"),
    ({"family": "gpd", "shape": -math.inf}, "generalized Pareto shape must be finite, got -inf"),
    ({"family": "gpd", "location": math.nan}, "generalized Pareto location must be finite, got nan"),
    ({"family": "gpd", "location": math.inf}, "generalized Pareto location must be finite, got inf"),
    ({"family": "gpd", "location": -math.inf}, "generalized Pareto location must be finite, got -inf"),
    ({"family": "gpd", "scale": math.inf}, "generalized Pareto scale must be finite, got inf"),
    ({"family": "burr", "scale": math.inf}, "Burr XII scale must be finite, got inf"),
    ({"family": "burr", "c": math.inf}, "Burr XII c must be finite, got inf"),
    ({"family": "truncated_normal", "mean": math.nan}, "normal mean must be finite, got nan"),
    ({"family": "truncated_normal", "mean": math.inf}, "normal mean must be finite, got inf"),
    ({"family": "truncated_normal", "mean": -math.inf}, "normal mean must be finite, got -inf"),
    ({"family": "truncated_normal", "stddev": math.inf}, "normal stddev must be finite, got inf"),
]


@pytest.mark.parametrize("distribution, message", NON_FINITE_PARAMETERS,
                         ids=[f"{d['family']}_{key}_{value}" for d, _ in NON_FINITE_PARAMETERS
                              for key, value in d.items() if key != "family"])
def test_a_non_finite_distribution_parameter_is_named(tmp_path, capsys, distribution, message):
    # JSON's NaN and Infinity reach the families; each used to end in a window without mass
    config = write_config(tmp_path, distribution=distribution)
    assert main(["solve", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()

def test_nonconvergence_exits_three_but_writes_files(tmp_path):
    config = write_config(tmp_path, alpha=0.9, max_rounds=3)
    assert main(["solve", "--config", str(config)]) == 3
    out = tmp_path / "out"
    assert (out / "summary.json").exists()
    assert json.loads((out / "summary.json").read_text())["converged"] is False


def test_blinded_collected_weighs_the_center_blinded_density(tmp_path):
    # the center's budget row uses h = blind(f, w_sigma); summary's collected and
    # ratio.csv must weigh the reported rule and shades with the same density
    config = write_config(tmp_path, mode="blinded", mu_sigma=2.0, w_sigma=5.0,
                          max_rounds=2, bins=20, subsamples=50)
    assert main(["solve", "--config", str(config)]) in (0, 3)
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    grid = make_grid(0, 10, 20, 50)
    f = gpd(0, 1, 1.0, 0, 10)
    rule = payment_rule(grid, np.loadtxt(out / "rule.csv", delimiter=",", skiprows=1)[:, 1])
    strategy = Strategy.functional(Tabulated(grid, np.array(summary["shade_nodes"]), "strategy"))
    g, h = blind(f, 2.0, grid), blind(f, 5.0, grid)
    under_h = collected(rule, strategy, h, grid)
    assert summary["collected"] == under_h
    c = g.bin_masses()
    ratio = np.loadtxt(out / "ratio.csv", delimiter=",", skiprows=1)[:, 1]
    assert ratio.tobytes() == csv_ratio(c, constraint_weights(strategy, h, grid)).tobytes()
    for other in (tabulate_pdf(f, grid), g):
        assert collected(rule, strategy, other, grid) != pytest.approx(under_h, rel=1e-3)
        assert not np.allclose(ratio, csv_ratio(c, constraint_weights(strategy, other, grid)), rtol=1e-3)


def csv_ratio(c, w):
    """The knapsack's ``w / c`` as ``ratio.csv`` writes it: 0 where ``w`` is 0 and
    the largest float where ``c`` is 0 < ``w``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(c > 0.0, w / c, np.finfo(float).max)
    return np.where(w > 0.0, ratio, 0.0)


def fill_order(ratio, w):
    """Bins by descending ``ratio``, ties from the lowest index, without the bins that collect nothing."""
    order = np.lexsort((np.arange(len(ratio)), -ratio))
    return order[w[order] > 0.0]


@pytest.mark.parametrize("overrides, sigmas", [
    ({}, None),
    ({"mode": "blinded", "mu_sigma": 2.0, "w_sigma": 5.0, "max_rounds": 3}, (2.0, 5.0)),
], ids=["exante", "blinded_2_5"])
def test_ratio_csv_sorts_into_the_knapsacks_fill_order_at_the_reported_shades(tmp_path, overrides, sigmas):
    # ratio.csv is w / c with c the center's objective bin masses (g) and w its
    # budget row (h) at the reported shades, so sorting it is the fill's order
    config = write_config(tmp_path, **overrides)
    assert main(["solve", "--config", str(config)]) in (0, 3)
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    grid = make_grid(0, 10, 50, 200)
    f = gpd(0, 1, 1.0, 0, 10)
    g, h = (tabulate_pdf(f, grid),) * 2 if sigmas is None else (blind(f, sigma, grid) for sigma in sigmas)
    c, w = g.bin_masses(), constraint_weights(np.array(summary["shade_nodes"]), h, grid)
    psi, ratio = np.loadtxt(out / "ratio.csv", delimiter=",", skiprows=1).T
    assert psi.tolist() == grid.mids.tolist()
    order = fill_order(ratio, w)
    assert order.size > 1 and order.tolist() == fill_order(csv_ratio(c, w), w).tolist()
    assert ratio.tobytes() == csv_ratio(c, w).tobytes()
    # filling bins to their bound in that order until the budget binds is the center's answer
    r, need = np.zeros(grid.bins), summary["k"]
    for b in order.tolist():
        r[b] = min(grid.mids[b], need / w[b])
        need -= r[b] * w[b]
        if r[b] < grid.mids[b]:
            break
    assert r == pytest.approx(_greedy_fill(c, w, grid.mids, summary["k"]), rel=1e-12, abs=1e-15)


def test_artifact_writing_rebuilds_no_information(monkeypatch, tmp_path):
    # the solve builds one nodes-by-samples kernel per distinct blinding
    # width, whose one sum is both the signal density and the posteriors'
    # normalizers, and each belief's quadrature weights once; scoring the written rule
    # reuses the solve's scan and builds none of them
    events = []
    kernel_columns, weights, write_artifacts = blinding._kernel_columns, bidder._weights, cli.write_artifacts

    def counting_kernel(centers, points, sigma, lo, hi):
        if len(centers) == 20 * 50 and len(points) == 20:  # centers at the samples, points at the nodes
            events.append(sigma)
        return kernel_columns(centers, points, sigma, lo, hi)

    def counting_weights(belief, grid):
        events.append("weights")
        return weights(belief, grid)

    def marking_write(*args, **kwargs):
        events.append("write")
        return write_artifacts(*args, **kwargs)

    monkeypatch.setattr(blinding, "_kernel_columns", counting_kernel)
    monkeypatch.setattr(bidder, "_weights", counting_weights)
    monkeypatch.setattr(cli, "write_artifacts", marking_write)
    for mu_sigma, w_sigma, kernels in ((2.0, 2.0, [2.0]), (2.0, 5.0, [2.0, 5.0])):
        events.clear()
        config = write_config(tmp_path, mode="blinded", mu_sigma=mu_sigma, w_sigma=w_sigma,
                              max_rounds=2, bins=20, subsamples=50)
        assert main(["solve", "--config", str(config)]) in (0, 3)
        assert events == [*kernels, *["weights"] * 20, "write"], (mu_sigma, w_sigma)


@pytest.mark.parametrize("f, config", [
    (gpd(0, 1, 1.0, 0, 10), EquilibriumConfig(gamma=0.25)),
    (gpd(0, 1, 1.0, 0, 10), EquilibriumConfig(mode="blinded", mu_sigma=2.0, w_sigma=2.0, max_rounds=3)),
], ids=["exante", "blinded_sigma_2"])
def test_deviation_incentive_through_the_solves_scan_is_a_fresh_scans(f, config):
    # summary.json's deviation incentive reuses the scan the solve kept; it
    # must have the bytes of one taken through a scan built afresh
    grid = make_grid(0, 10, 50, 200)
    trace = find_equilibrium(f, config, grid)
    instance = trace.instance
    truth = regret_at_truth(trace.rule, f, grid)
    kept = deviation_incentive(trace.rule, truth, instance.signal_density, instance.bidder)
    fresh = deviation_incentive(trace.rule, truth, instance.signal_density,
                                KeptScan(instance.bidder.beliefs, grid))
    assert kept.hex() == fresh.hex()


def test_exante_deviation_incentive_is_the_best_response_reading(tmp_path):
    # ex ante, as blinded, the bidder keeps the value of its best response to
    # the reported rule, not the retained regret at the damped shade
    config = write_config(tmp_path, gamma=0.1)
    assert main(["solve", "--config", str(config)]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    grid = make_grid(0, 10, 50, 200)
    rule = payment_rule(grid, np.loadtxt(out / "rule.csv", delimiter=",", skiprows=1)[:, 1])
    _, values = Instance.build(gpd(0, 1, 1.0, 0, 10), EquilibriumConfig(gamma=0.1), grid).bidder.respond(rule)
    expected = summary["regret_at_truth"] - values[0]
    assert summary["deviation_incentive"] == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("overrides", [{"gamma": 0.25},
                                       {"mode": "blinded", "mu_sigma": 2.0, "w_sigma": 2.0, "max_rounds": 3},
                                       {"bins": 30}],
                         ids=["exante", "blinded", "bins30"])
def test_diagnose_reports_the_summary_deviation_incentive(tmp_path, capsys, overrides):
    # the rule is scored on the config's grid, the one the solve ran on
    config = write_config(tmp_path, **overrides)
    assert main(["solve", "--config", str(config)]) in (0, 3)
    capsys.readouterr()  # drain the solve report
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert main(["diagnose", "--rule", str(tmp_path / "out" / "rule.csv"), "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("deviation_incentive", "regret_at_truth"):
        assert report[key] == summary[key], key


@pytest.mark.parametrize("overrides, message", [
    ({"mode": "blinded"}, "blinded mode requires mu_sigma > 0"),
    ({"mode": "nonsense"}, "unknown mode 'nonsense'"),
    ({"lower": -4}, "lower must be >= 0, got -4.0"),
    ({"bins": 30}, "rule.csv: psi column does not match the config's grid (30 nodes on [0, 10])"),
], ids=["blinded-without-sigma", "unknown-mode", "negative-lower", "grid-mismatch"])
def test_diagnose_checks_the_config_as_solve_does(tmp_path, capsys, monkeypatch, overrides, message):
    # diagnose builds the same set-up as solve, so it rejects what solve rejects
    monkeypatch.chdir(tmp_path)
    grid = make_grid(0, 10, 50, 200)
    _write_csv(tmp_path / "rule.csv", ["psi", "payment_above_critical"], zip(grid.mids, 0.5 * grid.mids))
    config = write_config(tmp_path, **overrides)
    assert main(["diagnose", "--rule", "rule.csv", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_preset_config_resolution():
    cfg = preset_config("exante-pareto", {"shape": "-0.1", "gamma": "0.2"})
    assert cfg.distribution["shape"] == -0.1
    assert cfg.gamma == 0.2
    cfg = preset_config("blinded-pareto", {"sigma": "10"})
    assert cfg.mu_sigma == 10.0
    assert cfg.w_sigma == 10.0
    cfg = preset_config("blinded-pareto", {"sigma": "10", "w-sigma": "3"})
    assert cfg.w_sigma == 3.0
    with pytest.raises(ValueError):
        preset_config("no-such-preset", {})
    with pytest.raises(ValueError):
        preset_config("exante-pareto", {"sigma": "1"})


def test_preset_run_via_main(tmp_path):
    code = main(["preset", "exante-pareto", "--shape", "-0.1", "--gamma", "0.2",
                 "--outdir", str(tmp_path / "p")])
    assert code == 0
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert summary["distribution"]["shape"] == -0.1
    assert 0.1 <= summary["shade"] <= 0.3


def test_unknown_preset_exits_one(capsys):
    assert main(["preset", "definitely-not-real"]) == 1
    assert "config error" in capsys.readouterr().err


def test_diagnose_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    main(["solve", "--config", str(config)])
    capsys.readouterr()  # drain the solve report
    code = main(["diagnose", "--rule", str(tmp_path / "out" / "rule.csv"),
                 "--config", str(config)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regret_at_truth"] > 0.0
    assert report["worst_case_regret"] > 0.0


def test_experiment_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(path)


def test_rule_csv_round_trip(tmp_path):
    grid = make_grid(0, 10, 50, 20)
    rule = payment_rule(grid, np.sqrt(grid.mids / grid.upper) * grid.mids)
    path = tmp_path / "rule.csv"
    _write_csv(path, ["psi", "value"], zip(grid.mids, rule.values))
    assert open(path).readline().strip() == "psi,value"
    back = read_rule_csv(path, grid)
    assert isinstance(back, PaymentRule)
    assert np.array_equal(back.values, rule.values)
    assert back.grid is grid


def test_rule_csv_envelope_is_checked_against_the_written_psi(tmp_path, capsys):
    # the identity rule, written on 30 bins, passes on the config's grid
    grid = make_grid(0, 10, 30, 200)
    config = write_config(tmp_path, bins=30)
    path = tmp_path / "rule.csv"
    _write_csv(path, ["psi", "payment_above_critical"], zip(grid.mids, grid.mids))
    assert main(["diagnose", "--rule", str(path), "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["worst_case_regret"] == pytest.approx(grid.mids[-1])
    _write_csv(path, ["psi", "payment_above_critical"], zip(grid.mids, grid.mids + np.eye(30)[4] * 1e-12))
    assert main(["diagnose", "--rule", str(path), "--config", str(config)]) == 1
    message = "payment rule must satisfy 0 <= r(psi) <= psi at every node"
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"


MISMATCH = r"psi column does not match the config's grid \(3 nodes on \[0, 0.6\]\)"


@pytest.mark.parametrize("text, message", [
    ("psi,value\n0.1,1.0\n0.3\n0.5,1.0\n", ":3: expected 'psi,value'"),
    ("x,value\n0.1,1.0\n0.3,1.0\n", "expected header"),
    ("psi,value\n0.1,1.0\n", MISMATCH),
    ("psi,value\n0.1,1.0\n0.3,1.0\n0.6,1.0\n", MISMATCH),
], ids=["short_row", "bad_header", "one_node", "uneven_spacing"])
def test_read_rule_csv_rejects_malformed_files(tmp_path, text, message):
    # the grid's nodes are 0.1, 0.3 and 0.5
    path = tmp_path / "rule.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        read_rule_csv(path, make_grid(0, 0.6, 3, 10))
    assert str(path) in str(info.value)
