"""CLI: presets, artifact files, exit codes, byte-level determinism."""

import json

import numpy as np
import pytest

from metaprice.bidder import Strategy
from metaprice.blinding import blind
from metaprice.center import collected, payment_rule
from metaprice.cli import ExperimentConfig, list_presets, main, preset_config
from metaprice.distributions import gpd, tabulate_pdf
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
    assert "exante-gamma" in text
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
    for name in ("rule.csv", "strategy.csv", "ratio.csv", "surface.csv", "summary.json"):
        assert (out / name).exists(), name
    assert open(out / "rule.csv").readline().strip() == "psi,payment_above_critical"
    assert open(out / "strategy.csv").readline().strip() == "psi,shade"
    assert open(out / "ratio.csv").readline().strip() == "psi,ratio"
    assert open(out / "surface.csv").readline().strip() == "psi,shade,value"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["gamma"] == 0.25
    assert 0.05 <= summary["shade"] <= 0.15
    assert summary["rounds"] <= 50
    assert len(summary["shade_nodes"]) == summary["bins"]


def test_surface_has_loss_pyramid(tmp_path):
    config = write_config(tmp_path)
    main(["solve", "--config", str(config)])
    rows = np.loadtxt(tmp_path / "out" / "surface.csv", delimiter=",", skiprows=1)
    psi, shade, value = rows.T
    losing = psi < shade
    assert np.allclose(value[losing], psi[losing])  # loss region emits psi itself
    assert rows.shape[0] == 50 * 50


def test_identical_config_gives_byte_identical_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config_a = write_config(tmp_path, outdir=str(out_a))
    main(["solve", "--config", str(config_a)])
    config_b = tmp_path / "config_b.json"
    config_b.write_text(json.dumps({**json.loads(config_a.read_text()), "outdir": str(out_b)}))
    main(["solve", "--config", str(config_b)])
    for name in ("rule.csv", "strategy.csv", "ratio.csv", "surface.csv"):
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


def test_nonconvergence_exits_three_but_writes_files(tmp_path):
    config = write_config(tmp_path, alpha=0.9, max_rounds=3)
    assert main(["solve", "--config", str(config)]) == 3
    out = tmp_path / "out"
    assert (out / "summary.json").exists()
    assert json.loads((out / "summary.json").read_text())["converged"] is False


def test_blinded_collected_weighs_the_center_blinded_density(tmp_path):
    # the center's budget row uses h = blind(f, w_sigma); summary's collected
    # must weigh the reported rule and shades with the same density
    config = write_config(tmp_path, mode="blinded", mu_sigma=2.0, w_sigma=5.0,
                          max_rounds=2, bins=20, subsamples=50)
    assert main(["solve", "--config", str(config)]) in (0, 3)
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    grid = make_grid(0, 10, 20, 50)
    f = gpd(0, 1, 1.0, 0, 10)
    rule = payment_rule(grid, np.loadtxt(out / "rule.csv", delimiter=",", skiprows=1)[:, 1])
    strategy = Strategy.functional(Tabulated(grid, np.array(summary["shade_nodes"]), "strategy"))
    under_h = collected(rule, strategy, blind(f, 5.0, grid), grid)
    assert summary["collected"] == under_h
    for other in (tabulate_pdf(f, grid), blind(f, 2.0, grid)):
        assert collected(rule, strategy, other, grid) != pytest.approx(under_h, rel=1e-3)


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
