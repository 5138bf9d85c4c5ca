"""Command-line front end: presets, config files, CSV/JSON artifacts.

Exit codes: 0 success, 1 configuration error, 2 infeasible budget,
3 non-convergence (artifact files are still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bidder import blinded_regret_DI, regret_at_truth, retained_integrand, shade_objective
from .blinding import blind
from .center import InfeasibleBudgetError, PaymentRule, collected, ratio_diagnostics
from .distributions import (DistributionSpec, burr_xii, fit_empirical, gpd,
                            read_samples, tabulate_pdf, truncated_normal, uniform)
from .equilibrium import EquilibriumConfig, EquilibriumTrace, find_equilibrium, format_report
from .grid import Grid, make_grid, read_tabulated_csv
from .rules import diagnose


@dataclass
class ExperimentConfig:
    """Flat, JSON-serializable description of one experiment."""

    distribution: dict = field(default_factory=lambda: {"family": "gpd", "location": 0.0, "scale": 1.0, "shape": 1.0})
    mode: str = "exante"
    gamma: float = 0.25
    mu_sigma: float | None = None
    w_sigma: float | None = None
    upper: float = 10.0
    lower: float = 0.0
    bins: int = 50
    subsamples: int = 200
    alpha: float = 0.2
    max_rounds: int = 50
    tolerance: float = 1e-3
    outdir: str = "out"

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def build_grid(config: ExperimentConfig) -> Grid:
    return make_grid(config.lower, config.upper, config.bins, config.subsamples)


def build_distribution(config: ExperimentConfig, grid: Grid) -> DistributionSpec:
    spec = dict(config.distribution)
    family = spec.pop("family", None)
    lo, hi = grid.lower, grid.upper
    if family == "gpd":
        return gpd(spec.pop("location", 0.0), spec.pop("scale", 1.0), spec.pop("shape", 0.0), lo, hi)
    if family == "burr":
        return burr_xii(spec.pop("c", 2.0), spec.pop("k", 1.0), lo, hi, scale=spec.pop("scale", 1.0))
    if family == "truncated_normal":
        return truncated_normal(spec.pop("mean", 5.0), spec.pop("stddev", 1.0), lo, hi)
    if family == "uniform":
        return uniform(lo, hi)
    if family == "empirical":
        path = spec.pop("path", None)
        if path is None:
            raise ValueError("empirical distribution needs a 'path' to a sample file")
        return fit_empirical(read_samples(path), grid)
    raise ValueError(f"unknown distribution family {family!r}")


PRESETS: dict[str, dict] = {
    "exante-pareto": {
        "description": "ex-ante equilibrium, generalized Pareto profits (vary --shape)",
        "config": {"mode": "exante",
                   "distribution": {"family": "gpd", "location": 0.0, "scale": 1.0, "shape": 1.0}},
        "flags": {"shape": ("distribution.shape", float), "gamma": ("gamma", float)},
    },
    "exante-gamma": {
        "description": "ex-ante equilibrium, Pareto shape 1, budget-fraction sweep (vary --gamma)",
        "config": {"mode": "exante",
                   "distribution": {"family": "gpd", "location": 0.0, "scale": 1.0, "shape": 1.0}},
        "flags": {"gamma": ("gamma", float), "shape": ("distribution.shape", float)},
    },
    "exante-burr": {
        "description": "ex-ante equilibrium, Burr XII profits (vary --c/--k; interior-band rule)",
        "config": {"mode": "exante",
                   "distribution": {"family": "burr", "c": 2.0, "k": 1.0, "scale": 1.0}},
        "flags": {"c": ("distribution.c", float), "k": ("distribution.k", float), "gamma": ("gamma", float)},
    },
    "blinded-pareto": {
        "description": "blinded equilibrium, Pareto shape 1, normal blinding (vary --sigma)",
        "config": {"mode": "blinded", "mu_sigma": 5.0, "w_sigma": 5.0,
                   "distribution": {"family": "gpd", "location": 0.0, "scale": 1.0, "shape": 1.0}},
        "flags": {"sigma": ("mu_sigma+w_sigma", float), "w-sigma": ("w_sigma", float), "gamma": ("gamma", float)},
    },
}

PRESET_FLAGS = sorted({f for entry in PRESETS.values() for f in entry["flags"]})


def preset_config(name: str, overrides: dict) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; see list-presets")
    config = ExperimentConfig()
    base = PRESETS[name]["config"]
    for key, value in base.items():
        setattr(config, key, dict(value) if isinstance(value, dict) else value)
    flags = PRESETS[name]["flags"]
    for flag, raw in overrides.items():
        if flag not in flags:
            raise ValueError(f"preset {name!r} does not take --{flag}")
        target, cast = flags[flag]
        value = cast(raw)
        if target == "mu_sigma+w_sigma":
            config.mu_sigma = value
            if "w-sigma" not in overrides:
                config.w_sigma = value
        elif target.startswith("distribution."):
            config.distribution[target.split(".", 1)[1]] = value
        else:
            setattr(config, target, value)
    return config


def list_presets() -> str:
    lines = ["available presets:"]
    for name, entry in PRESETS.items():
        lines.append(f"  {name:15s} {entry['description']}")
        lines.append(f"  {'':15s} flags: " + ", ".join(f"--{f}" for f in entry["flags"]))
    lines.append("  standard sweeps: exante-pareto --shape {-0.1,0.01,1};")
    lines.append("  exante-gamma --gamma {0.25,0.5,0.75}; blinded-pareto --sigma {2,5,10,1000}.")
    lines.append("  note: the default budget is gamma 0.25.  Measured ex-ante equilibria: shape 1 at")
    lines.append("  gamma 0.40, 0.42 and an isolated 0.48, none at 0.44-0.46 or >= 0.5; shapes -0.1")
    lines.append("  and 0.01 at 0.375, none at 0.4.  At gamma 0.5 all three exit with code 2.")
    return "\n".join(lines)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def write_artifacts(outdir: Path, trace: EquilibriumTrace, f: DistributionSpec, grid: Grid,
                    config: ExperimentConfig) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    rule = trace.rule
    strategy = trace.strategy
    shades = strategy.shade_at(grid.mids)
    ftab = tabulate_pdf(f, grid)

    _write_csv(outdir / "rule.csv", ["psi", "payment_above_critical"],
               zip(grid.mids, rule.values))
    _write_csv(outdir / "strategy.csv", ["psi", "shade"], zip(grid.mids, shades))
    rho = ratio_diagnostics(f, strategy, grid)
    _write_csv(outdir / "ratio.csv", ["psi", "ratio"],
               zip(grid.mids, np.nan_to_num(rho, posinf=np.finfo(float).max)))

    # one row per (shade, psi) pair, shade-major
    psi, shade = np.meshgrid(grid.mids, grid.mids)
    surface = retained_integrand(grid.mids, rule, grid.mids)
    _write_csv(outdir / "surface.csv", ["psi", "shade", "value"],
               zip(psi.ravel(), shade.ravel(), surface.ravel()))

    # the budget row weighs what the center's does: the center-blinded density in blinded mode
    if config.mode == "blinded":
        di = blinded_regret_DI(rule, f, config.mu_sigma, grid)
        constraint_density = blind(f, config.w_sigma, grid)
    else:
        constraint_density = ftab
        s_star = float(strategy.constant)
        di = regret_at_truth(rule, f, grid) - shade_objective(s_star, rule, ftab, grid)

    summary = {
        "mode": config.mode,
        "gamma": config.gamma,
        "mu_sigma": config.mu_sigma,
        "w_sigma": config.w_sigma,
        "alpha": config.alpha,
        "max_rounds": config.max_rounds,
        "tolerance": config.tolerance,
        "bins": config.bins,
        "subsamples": config.subsamples,
        "lower": config.lower,
        "upper": config.upper,
        "distribution": config.distribution,
        "converged": trace.converged,
        "rounds": trace.n_rounds,
        "k_vcg": trace.budget.k_vcg,
        "k": trace.budget.k,
        "shade": float(strategy.constant) if strategy.is_constant else None,
        "shade_nodes": [float(v) for v in shades],
        "deviation_incentive": di,
        "regret_at_truth": regret_at_truth(rule, f, grid),
        "collected": collected(rule, strategy, constraint_density, grid),
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


def run_experiment(config: ExperimentConfig) -> int:
    """Solve one experiment and write its artifact files; returns the exit code."""
    try:
        grid = build_grid(config)
        f = build_distribution(config, grid)
        eq_config = EquilibriumConfig(
            mode=config.mode, gamma=config.gamma,
            mu_sigma=config.mu_sigma, w_sigma=config.w_sigma,
            alpha=config.alpha, max_rounds=config.max_rounds, tolerance=config.tolerance,
        )
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        trace = find_equilibrium(f, eq_config, grid)
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    summary = write_artifacts(Path(config.outdir), trace, f, grid, config)
    print(format_report(trace, extras={
        "deviation incentive": summary["deviation_incentive"],
        "collected budget": summary["collected"],
    }))
    print(f"runtime: {elapsed:.2f}s; artifacts in {config.outdir}")
    return 0 if trace.converged else 3


def run_diagnose(rule_path: str, config: ExperimentConfig) -> int:
    try:
        rule_tab = read_tabulated_csv(rule_path, kind="rule", subsamples=config.subsamples)
        grid = rule_tab.grid
        rule = PaymentRule(rule_tab)
        f = build_distribution(config, grid)
        mu_sigma = config.mu_sigma if config.mu_sigma is not None else 1000.0
        report = diagnose(rule, f, mu_sigma, grid)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="metaprice",
                                     description="payment rules for budget-balanced exchanges")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an experiment from a JSON config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--outdir", default=None)

    p_preset = sub.add_parser("preset", help="run a built-in experiment preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--outdir", default=None)
    for flag in PRESET_FLAGS:
        p_preset.add_argument(f"--{flag}", default=None)

    p_diag = sub.add_parser("diagnose", help="score a rule CSV against a config")
    p_diag.add_argument("--rule", required=True)
    p_diag.add_argument("--config", required=True)

    sub.add_parser("list-presets", help="show the preset families")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        print(list_presets())
        return 0
    if args.command == "preset":
        overrides = {}
        for flag in PRESET_FLAGS:
            value = getattr(args, flag.replace("-", "_"), None)
            if value is not None:
                overrides[flag] = value
        try:
            config = preset_config(args.name, overrides)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        if args.outdir:
            config.outdir = args.outdir
        else:
            config.outdir = f"out-{args.name}"
        return run_experiment(config)
    try:
        config = ExperimentConfig.from_json(args.config)
    except (ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.command == "diagnose":
        return run_diagnose(args.rule, config)
    if args.outdir:
        config.outdir = args.outdir
    return run_experiment(config)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
