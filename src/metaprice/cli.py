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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bidder import deviation_incentive, regret_at_truth
from .center import InfeasibleBudgetError, PaymentRule, constraint_weights, fill_ratio, payment_rule
from .distributions import (DistributionSpec, burr_xii, fit_empirical, gpd,
                            read_samples, truncated_normal, uniform)
from .equilibrium import EquilibriumConfig, EquilibriumTrace, Instance, diagnose, find_equilibrium, format_report
from .grid import Grid, make_grid

# what a malformed or unreadable config, or a set-up it leaves with no mass,
# raises; JSONDecodeError is a ValueError
CONFIG_ERRORS = (ValueError, TypeError, OSError)


def _no_booleans(obj: dict) -> dict:
    """``json.load``'s hook on each object of a config: no key takes true or false."""
    if flags := sorted(key for key, value in obj.items() if isinstance(value, bool)):
        raise ValueError(f"no config key takes a boolean, got one for {flags}")
    return obj


@dataclass
class ExperimentConfig:
    """Flat, JSON-serializable description of one experiment."""

    distribution: dict = field(default_factory=lambda: {"family": "gpd", "location": 0.0, "scale": 1.0, "shape": 1.0})
    mode: str = EquilibriumConfig.mode
    gamma: float = EquilibriumConfig.gamma
    mu_sigma: float | None = EquilibriumConfig.mu_sigma
    w_sigma: float | None = EquilibriumConfig.w_sigma
    upper: float = 10.0
    lower: float = 0.0
    bins: int = 50
    subsamples: int = 200
    alpha: float = EquilibriumConfig.alpha
    max_rounds: int = EquilibriumConfig.max_rounds
    tolerance: float = EquilibriumConfig.tolerance
    outdir: str = "out"

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh, object_hook=_no_booleans)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def build_grid(config: ExperimentConfig) -> Grid:
    """The configured grid; potential profit is nonnegative, so ``lower`` is too."""
    grid = make_grid(config.lower, config.upper, config.bins, config.subsamples)
    if grid.lower < 0.0:
        raise ValueError(f"lower must be >= 0, got {grid.lower!r}")
    return grid


def build_distribution(config: ExperimentConfig, grid: Grid) -> DistributionSpec:
    """The configured distribution on the grid's window; rejects keys its family does not take."""
    if not isinstance(config.distribution, dict):
        raise ValueError(f"distribution must be a JSON object, got {type(config.distribution).__name__}")
    spec = dict(config.distribution)
    family = spec.pop("family", None)
    lo, hi = grid.lower, grid.upper
    if family == "gpd":
        f = gpd(spec.pop("location", 0.0), spec.pop("scale", 1.0), spec.pop("shape", 0.0), lo, hi)
    elif family == "burr":
        f = burr_xii(spec.pop("c", 2.0), spec.pop("k", 1.0), lo, hi, scale=spec.pop("scale", 1.0))
    elif family == "truncated_normal":
        f = truncated_normal(spec.pop("mean", 5.0), spec.pop("stddev", 1.0), lo, hi)
    elif family == "uniform":
        f = uniform(lo, hi)
    elif family == "empirical":
        path = spec.pop("path", None)
        if path is None:
            raise ValueError("empirical distribution needs a 'path' to a sample file")
        samples = read_samples(path)
        f = fit_empirical(samples, grid)
        if f.family.dropped:
            print(f"warning: dropped {f.family.dropped} of {len(samples)} samples outside [{lo:g}, {hi:g}]",
                  file=sys.stderr)
    else:
        raise ValueError(f"unknown distribution family {family!r}")
    if spec:
        raise ValueError(f"unknown keys for distribution family {family!r}: {sorted(spec)}")
    return f


PRESETS: dict[str, dict] = {
    "exante-pareto": {
        "description": "ex-ante equilibrium, generalized Pareto profits (vary --shape, --gamma)",
        "config": {"mode": "exante",
                   "distribution": {"family": "gpd", "location": 0.0, "scale": 1.0, "shape": 1.0}},
        "flags": {"shape": "distribution.shape", "gamma": "gamma"},
    },
    "exante-burr": {
        "description": "ex-ante equilibrium, Burr XII profits (vary --c/--k; interior-band rule)",
        "config": {"mode": "exante",
                   "distribution": {"family": "burr", "c": 2.0, "k": 1.0, "scale": 1.0}},
        "flags": {"c": "distribution.c", "k": "distribution.k", "gamma": "gamma"},
    },
    "blinded-pareto": {
        "description": "blinded equilibrium, Pareto shape 1, normal blinding (vary --sigma)",
        "config": {"mode": "blinded", "mu_sigma": 5.0, "w_sigma": 5.0,
                   "distribution": {"family": "gpd", "location": 0.0, "scale": 1.0, "shape": 1.0}},
        "flags": {"sigma": "mu_sigma+w_sigma", "w-sigma": "w_sigma", "gamma": "gamma"},
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
        target = flags[flag]
        value = float(raw)
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
    lines.append("  standard sweeps: exante-pareto --shape {-0.1,0.01,1} and --gamma {0.25,0.5,0.75};")
    lines.append("  blinded-pareto --sigma {2,5,10,1000}.")
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


def read_rule_csv(path: str | Path, grid: Grid) -> PaymentRule:
    """Read a rule as :func:`write_artifacts` writes ``rule.csv``: header
    ``psi,<value>``, then one ``psi,value`` row per node of ``grid``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "psi":
            raise ValueError(f"{path}: expected header 'psi,<value>'")
        rows = []
        for row in filter(None, reader):
            if len(row) < 2:
                raise ValueError(f"{path}:{reader.line_num}: expected 'psi,value', got {row!r}")
            rows.append((float(row[0]), float(row[1])))
    psi = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    if psi.shape != grid.mids.shape or not np.allclose(psi, grid.mids, rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: psi column does not match the config's grid "
                         f"({grid.bins} nodes on [{grid.lower:g}, {grid.upper:g}])")
    if not np.all((vals >= 0.0) & (vals <= psi)):
        raise ValueError(f"{path}: payment rule must satisfy 0 <= r(psi) <= psi at every node")
    return payment_rule(grid, vals)


def write_artifacts(outdir: Path, trace: EquilibriumTrace, config: ExperimentConfig) -> dict:
    """Write the reported rule and shades and the summary; ``ratio.csv`` and ``collected`` read one budget row."""
    outdir.mkdir(parents=True, exist_ok=True)
    rule, shades, instance = trace.rule, trace.strategy, trace.instance
    f, grid = instance.f, instance.grid
    w = constraint_weights(shades, instance.constraint_density, grid)

    _write_csv(outdir / "rule.csv", ["psi", "payment_above_critical"],
               zip(grid.mids, rule.values))
    _write_csv(outdir / "strategy.csv", ["psi", "shade"], zip(grid.mids, shades))
    rho = fill_ratio(instance.signal_density.bin_masses(), w)
    _write_csv(outdir / "ratio.csv", ["psi", "ratio"], zip(grid.mids, np.minimum(rho, np.finfo(float).max)))

    truth = regret_at_truth(rule, f, grid)
    summary = {key: value for key, value in asdict(config).items() if key != "outdir"}
    summary.update({
        "converged": trace.converged,
        "rounds": trace.n_rounds,
        "k_vcg": instance.budget.k_vcg,
        "k": instance.budget.k,
        "shade": float(shades[0]) if instance.config.mode == "exante" else None,
        "shade_nodes": [float(v) for v in shades],
        "deviation_incentive": deviation_incentive(rule, truth, instance.signal_density, instance.bidder),
        "regret_at_truth": truth,
        "collected": float(np.dot(w, rule.values)),
    })
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


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
    try:
        if args.command == "preset":
            overrides = {flag: value for flag in PRESET_FLAGS
                         if (value := getattr(args, flag.replace("-", "_"))) is not None}
            config = preset_config(args.name, overrides)
            config.outdir = args.outdir or f"out-{args.name}"
        else:
            config = ExperimentConfig.from_json(args.config)
            if args.command == "solve" and args.outdir:
                config.outdir = args.outdir
        grid = build_grid(config)
        f = build_distribution(config, grid)
        eq_config = EquilibriumConfig(**{fld.name: getattr(config, fld.name)
                                         for fld in fields(EquilibriumConfig)})
        outdir = Path(config.outdir)  # a bad outdir is a config error before any round
        if args.command == "diagnose":
            rule = read_rule_csv(args.rule, grid)
            report = diagnose(rule, Instance.build(f, eq_config, grid))
        else:
            # an outdir at or under a regular file cannot be made: refuse it now, making nothing
            existing = next(p for p in (outdir, *outdir.parents) if p.exists())
            if not existing.is_dir():
                raise NotADirectoryError(f"outdir {outdir}: {existing} is not a directory")
            started = time.perf_counter()
            # a ValueError comes from the solve's set-up (normalizing a density,
            # the mean, a posterior's mass); its rounds raise only the infeasible budget
            trace = find_equilibrium(f, eq_config, grid)
            elapsed = time.perf_counter() - started
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "diagnose":
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0
    summary = write_artifacts(outdir, trace, config)
    print(format_report(trace))
    print(f"deviation incentive: {summary['deviation_incentive']:.6g}")
    print(f"collected budget: {summary['collected']:.6g}")
    print(f"runtime: {elapsed:.2f}s; artifacts in {config.outdir}")
    return 0 if trace.converged else 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
