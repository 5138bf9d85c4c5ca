"""The three benchmark workloads: inputs, one timed pass, and output checks.

Each workload drives metaprice only through public entry points:
``metaprice.cli.main`` argv for equilibrium solves, and the
``metaprice.center`` / ``metaprice.rules`` functions for the center sweep.
``setup()`` makes the inputs from the seed and readies what the first solve
needs (import, grid, distribution, densities); ``run_pass()`` times every
item of one pass and checks its outputs outside the timed region.

Why these three (measured on the seed code, 50 bins x 200 sub-samples):

* exante-sweep -- the paper's ex-ante sweep.  The constant-shade bidder is
  about 95 % of each solve and the center about 3 %.  Five of the twelve
  GPD instances have no feasible equilibrium (exit 2), so the infeasible
  path is timed beside converged solves; the doubled-sub-sample instance
  doubles the bidder scan's working set.
* blinded-cap -- blinded solves with a fixed round cap.  The per-signal
  bidder response dominates; posteriors are rebuilt every round and
  artifact writing runs a full deviation-incentive response.  Every blinded
  preset hits the cap today, so a fixed cap times the cost of a round.
* center-sweep -- center solves alone, never the bidder: the call pattern
  of feasibility scans and rule scorecards.  A bidder-only change predicts
  no change here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from metaprice import bidder, blinding, center, cli, distributions, rules
from metaprice.grid import Tabulated, make_grid
from spans import Patcher

DEFAULT_BINS = 50
DEFAULT_SUBSAMPLES = 200

EXANTE_SHAPES = (-0.1, 0.01, 1.0)
EXANTE_GAMMAS = (0.1, 0.25, 0.4, 0.5)
EMPIRICAL_SAMPLES = 20_000
# instances whose final rule the dense-scan oracle re-checks (first pass)
ORACLE_INSTANCES = ("gpd_-0.1_0.25", "gpd_1_0.25", "empirical")

BLINDED_SIGMAS = (2.0, 1000.0)
# Every blinded preset hits the cap today; three rounds keep one pass near
# 7 s on one core so a run holds several passes.
ROUND_CAP = 3

CENTER_ITEMS = 1000
CENTER_SIGMA = 5.0
CALIBRATE_EVERY = 25
LP_CHECKS = 25

REFERENCE_PATH = Path(__file__).with_name("exante_reference.json")


@dataclass
class Item:
    """One timed unit of a pass and what its checks found."""

    name: str
    kind: str                 # "solve" or "calibrate"
    seconds: float
    round_ms: float | None = None
    failures: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


class RoundTimer:
    """Times ``find_equilibrium`` as the CLI calls it, for ms per round.

    One wrap at one boundary per solve, made with the tracer's ``Patcher``
    and left in place for the whole run, untraced passes included.
    """

    def __init__(self) -> None:
        self.last: tuple[float, int] | None = None
        self._patcher = Patcher()

    def install(self) -> None:
        def make(original):
            def timed(*args, **kwargs):
                self.last = None
                start = time.perf_counter()
                trace = original(*args, **kwargs)
                self.last = (time.perf_counter() - start, trace.n_rounds)
                return trace
            return timed
        if not self._patcher.replace("metaprice.equilibrium", "find_equilibrium", make):
            raise RuntimeError("metaprice.equilibrium.find_equilibrium is gone; rounds cannot be timed")

    def uninstall(self) -> None:
        self._patcher.restore()

    def round_ms(self) -> float | None:
        if self.last is None or self.last[1] == 0:
            return None
        return 1e3 * self.last[0] / self.last[1]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, bins: int = DEFAULT_BINS,
                 subsamples: int = DEFAULT_SUBSAMPLES) -> None:
        self.seed = seed
        self.workdir = workdir
        self.bins = bins
        self.subsamples = subsamples
        self.tracer = None
        self.timer = RoundTimer()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> list[Item]:
        raise NotImplementedError

    def _untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def _mark(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.item = label


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _read_nodes(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def dense_shade_values(shades: np.ndarray, rule_nodes: np.ndarray, belief_nodes: np.ndarray,
                       lower: float, upper: float, subsamples: int) -> np.ndarray:
    """Expected retained regret at each shade, computed without metaprice.

    Midpoint quadrature of ``I[x<s] x + I[x>=s] r(x-s)`` against the belief,
    both curves interpolated linearly between bin midpoints.
    """
    bins = len(rule_nodes)
    mids = lower + (np.arange(bins) + 0.5) * (upper - lower) / bins
    dx = (upper - lower) / (bins * subsamples)
    xs = lower + (np.arange(bins * subsamples) + 0.5) * dx
    weights = np.interp(xs, mids, belief_nodes) * dx
    out = np.empty(len(shades))
    for lo in range(0, len(shades), 128):
        s = shades[lo:lo + 128, None]
        pay = np.interp(xs[None, :] - s, mids, rule_nodes)
        out[lo:lo + 128] = np.where(xs[None, :] < s, xs[None, :], pay) @ weights
    return out


def _rule_bounds(failures: list[str], rule: np.ndarray, mids: np.ndarray) -> None:
    _check(failures, rule.shape == mids.shape, f"rule has {rule.shape} nodes")
    _check(failures, bool(np.all(rule >= 0.0) and np.all(rule <= mids)), "rule leaves 0 <= r <= psi")


class _EquilibriumSweep(Workload):
    """Shared by the two workloads that run CLI solves."""

    def _instance(self, name: str, preset: str, flags: dict, **overrides) -> dict:
        """Argv for one solve: the preset itself, or its config plus overrides."""
        config = cli.preset_config(preset, {k: str(v) for k, v in flags.items()})
        if (self.bins, self.subsamples) != (DEFAULT_BINS, DEFAULT_SUBSAMPLES):
            overrides = {"bins": self.bins, "subsamples": self.subsamples, **overrides}
        outdir = self.workdir / name
        if overrides:
            for key, value in overrides.items():
                setattr(config, key, value)
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(dataclasses.asdict(config), sort_keys=True))
            argv = ["solve", "--config", str(path), "--outdir", str(outdir)]
        else:
            argv = ["preset", preset, *[a for k, v in flags.items() for a in (f"--{k}", str(v))],
                    "--outdir", str(outdir)]
        return {"name": name, "argv": argv, "config": config, "outdir": outdir}

    def _first_inputs(self) -> None:
        """What the first solve builds before its first round."""
        config = self.instances[0]["config"]
        grid = cli.build_grid(config)
        f = cli.build_distribution(config, grid)
        distributions.tabulate_pdf(f, grid)
        center.k_vcg(f, grid)
        if config.mode == "blinded":
            blinding.blind(f, config.mu_sigma, grid)
            blinding.blind(f, config.w_sigma, grid)

    def _model(self, inst: dict):
        if "model" not in inst:
            config = inst["config"]
            grid = cli.build_grid(config)
            f = cli.build_distribution(config, grid)
            inst["model"] = (grid, f, distributions.tabulate_pdf(f, grid), center.k_vcg(f, grid))
        return inst["model"]

    def _solve(self, inst: dict, label: str) -> tuple[Item, int, str]:
        self._mark(label)
        self.timer.last = None
        start = time.perf_counter()
        code, log = _run_cli(inst["argv"])
        seconds = time.perf_counter() - start
        self._mark(None)
        item = Item(inst["name"], "solve", seconds, self.timer.round_ms() if code in (0, 3) else None)
        return item, code, log

    def _check_artifacts(self, item: Item, inst: dict) -> dict:
        """Checks every written solve must pass; returns its summary."""
        config = inst["config"]
        summary = json.loads((inst["outdir"] / "summary.json").read_text())
        grid, _, _, _ = self._model(inst)
        _rule_bounds(item.failures, _read_nodes(inst["outdir"] / "rule.csv"), grid.mids)
        shades = _read_nodes(inst["outdir"] / "strategy.csv")
        _check(item.failures, bool(np.all(shades >= 0.0) and np.all(shades <= config.upper)),
               "shade leaves [0, upper]")
        _check(item.failures, self.timer.last is not None and summary["rounds"] == self.timer.last[1],
               "summary rounds disagree with the solve")
        _check(item.failures, math.isfinite(summary["deviation_incentive"]), "deviation incentive not finite")
        return summary


class ExanteSweep(_EquilibriumSweep):
    name = "exante-sweep"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        samples = 1.0 / (1.0 - rng.random(EMPIRICAL_SAMPLES)) - 1.0  # Pareto(1), i.e. GPD shape 1
        sample_path = self.workdir / "pareto_samples.txt"
        sample_path.write_text("".join(f"{float(v)!r}\n" for v in samples))
        self.instances = [self._instance(f"gpd_{shape:g}_{gamma:g}", "exante-pareto",
                                         {"shape": shape, "gamma": gamma})
                          for shape in EXANTE_SHAPES for gamma in EXANTE_GAMMAS]
        self.instances.append(self._instance(
            "empirical", "exante-pareto", {"gamma": 0.25},
            distribution={"family": "empirical", "path": str(sample_path)}))
        self.instances.append(self._instance(
            "pareto1_doubled", "exante-pareto", {"shape": 1.0, "gamma": 0.25},
            subsamples=2 * self.subsamples))
        default_grid = (self.bins, self.subsamples) == (DEFAULT_BINS, DEFAULT_SUBSAMPLES)
        self.reference = json.loads(REFERENCE_PATH.read_text()) if default_grid else {}
        self._first_inputs()

    def run_pass(self, index: int) -> list[Item]:
        items = []
        for inst in self.instances:
            item, code, log = self._solve(inst, f"{index}:{inst['name']}")
            items.append(item)
            with self._untraced():
                self._check_solve(item, inst, code, log, deep=index == 0)
        return items

    def _check_solve(self, item: Item, inst: dict, code: int, log: str, deep: bool) -> None:
        failures = item.failures
        _check(failures, code in (0, 2, 3), f"exit {code}: {log.strip()[-200:]}")
        ref = self.reference.get(inst["name"])
        if ref is not None:
            _check(failures, code == ref["exit"], f"exit {code}, reference {ref['exit']}")
        if code not in (0, 3):
            return
        summary = self._check_artifacts(item, inst)
        shade = summary["shade"]
        if ref is not None and code == 0 and ref["exit"] == 0:
            _check(failures, abs(shade - ref["shade"]) <= inst["config"].tolerance,
                   f"shade {shade!r}, reference {ref['shade']!r}")
        # the damped rule need not meet k at the damped shade; recorded, not checked
        item.notes["collected_shortfall"] = (summary["k"] - summary["collected"]) / summary["k"]
        if deep:
            self._check_center_at(item, inst, shade)
            if inst["name"] in ORACLE_INSTANCES:
                self._check_oracle(item, inst)

    def _check_center_at(self, item: Item, inst: dict, shade: float) -> None:
        """The reported shade admits a rule meeting the budget, and the center finds it."""
        grid, f, ftab, kv = self._model(inst)
        strategy = bidder.Strategy.const(shade)
        budget = center.Budget(inst["config"].gamma, kv)
        try:
            rule = center.solve_center(ftab, ftab, strategy, budget, grid)
        except center.InfeasibleBudgetError as exc:
            item.failures.append(f"no feasible rule at the reported shade: {exc}")
            return
        got = center.collected(rule, strategy, ftab, grid)
        _check(item.failures, got >= budget.k * (1.0 - 1e-9), f"center rule collects {got!r} < k={budget.k!r}")

    def _check_oracle(self, item: Item, inst: dict) -> None:
        """A dense scan finds no shade better than the bidder's by more than TIE_RTOL."""
        grid, f, ftab, kv = self._model(inst)
        nodes = _read_nodes(inst["outdir"] / "rule.csv")
        s = bidder.best_response_constant(center.payment_rule(grid, nodes), ftab, grid)
        shades = np.append(np.linspace(grid.lower, grid.upper, 2001), s)
        values = dense_shade_values(shades, nodes, ftab.values, grid.lower, grid.upper, grid.subsamples)
        best = float(values[:-1].min())
        tie = bidder.TIE_RTOL
        _check(item.failures, values[-1] <= best + tie * (1.0 + abs(best)),
               f"bidder shade {s!r} scores {values[-1]!r}; dense minimum {best!r}")


class BlindedCap(_EquilibriumSweep):
    name = "blinded-cap"

    def setup(self) -> None:
        # no sampled inputs: the seed changes nothing here
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.instances = [self._instance(f"sigma_{sigma:g}", "blinded-pareto",
                                         {"sigma": sigma, "gamma": 0.25}, max_rounds=ROUND_CAP)
                          for sigma in BLINDED_SIGMAS]
        self.first_bytes: dict[str, bytes] = {}
        self._first_inputs()

    def run_pass(self, index: int) -> list[Item]:
        items = []
        for inst in self.instances:
            item, code, log = self._solve(inst, f"{index}:{inst['name']}")
            items.append(item)
            with self._untraced():
                _check(item.failures, code in (0, 3), f"exit {code}: {log.strip()[-200:]}")
                if code in (0, 3):
                    summary = self._check_artifacts(item, inst)
                    _check(item.failures, code == 0 or summary["rounds"] == ROUND_CAP,
                           f"stopped after {summary['rounds']} rounds without converging")
                    raw = (inst["outdir"] / "summary.json").read_bytes()
                    first = self.first_bytes.setdefault(inst["name"], raw)
                    _check(item.failures, raw == first, "summary.json differs from the first pass")
        return items


class CenterSweep(Workload):
    name = "center-sweep"

    def setup(self) -> None:
        grid = self.grid = make_grid(0.0, 10.0, self.bins, self.subsamples)
        f = self.f = distributions.gpd(0.0, 1.0, 1.0, grid.lower, grid.upper)
        ftab = self.ftab = distributions.tabulate_pdf(f, grid)
        kv = center.k_vcg(f, grid)
        g = blinding.blind(f, CENTER_SIGMA, grid)
        h = blinding.blind(f, CENTER_SIGMA, grid)
        rng = np.random.default_rng(self.seed)
        self.items = []
        for i in range(CENTER_ITEMS):
            budget = center.Budget(float(rng.uniform(0.05, 0.45)), kv)
            if i % 2 == 0:
                strategy = bidder.Strategy.const(float(rng.uniform(0.0, 2.0)))
                self.items.append((strategy, ftab, ftab, budget))
            else:
                level, slope = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.3)
                profile = np.clip(level + slope * grid.mids, 0.0, 2.0)
                strategy = bidder.Strategy.functional(Tabulated(grid, profile, "strategy"))
                self.items.append((strategy, g, h, budget))
        self.calibrations = [(family, i) for i in range(0, CENTER_ITEMS, 2 * CALIBRATE_EVERY)
                             for family in ("threshold", "small", "large")]
        self.lp_checks = set(rng.choice(CENTER_ITEMS, size=min(LP_CHECKS, CENTER_ITEMS), replace=False).tolist())
        self.first: list | None = None

    def run_pass(self, index: int) -> list[Item]:
        grid, f = self.grid, self.f
        items, outcomes = [], []
        for i, (strategy, objective, constraint, budget) in enumerate(self.items):
            self._mark(f"{index}:{i}")
            start = time.perf_counter()
            try:
                rule = center.solve_center(objective, constraint, strategy, budget, grid)
            except center.InfeasibleBudgetError:
                rule = None
            solved = time.perf_counter()
            got = None if rule is None else center.collected(rule, strategy, constraint, grid)
            center.ratio_diagnostics(f, strategy, grid)
            done = time.perf_counter()
            items.append(Item(f"solve_{i}", "solve", done - start, 1e3 * (solved - start)))
            outcomes.append((rule, got))
        for family, i in self.calibrations:
            strategy, _, _, budget = self.items[i]
            self._mark(f"{index}:{family}_{i}")
            start = time.perf_counter()
            try:
                ref = rules.calibrate(family, f, strategy, budget, grid)
            except center.InfeasibleBudgetError:
                ref = None
            items.append(Item(f"{family}_{i}", "calibrate", time.perf_counter() - start))
            outcomes.append((None if ref is None else ref.realized, None))
        self._mark(None)
        with self._untraced():
            self._check_pass(items, outcomes)
        return items

    def _check_pass(self, items: list[Item], outcomes: list) -> None:
        values = [None if rule is None else rule.values for rule, _ in outcomes]
        if self.first is not None:
            for item, now, then in zip(items, values, self.first):
                same = (now is None and then is None) or (
                    now is not None and then is not None and np.array_equal(now, then))
                _check(item.failures, same, "outcome differs from the first pass")
            return
        self.first = values
        for i, (item, (rule, got)) in enumerate(zip(items, outcomes)):
            if item.kind == "solve":
                self._check_solve(item, i, rule, got)
            else:
                family, j = self.calibrations[i - len(self.items)]
                self._check_calibration(item, family, self.items[j], rule)

    def _check_solve(self, item: Item, i: int, rule, got) -> None:
        strategy, objective, constraint, budget = self.items[i]
        grid = self.grid
        c = objective.bin_masses()
        w = center.constraint_weights(strategy, constraint, grid)
        capacity = float(w @ grid.mids)
        k = budget.k
        infeasible = k > capacity * (1.0 + 1e-12)
        _check(item.failures, (rule is None) == infeasible,
               f"verdict {'infeasible' if rule is None else 'feasible'} at k={k!r}, capacity={capacity!r}")
        if rule is None:
            return
        _rule_bounds(item.failures, rule.values, grid.mids)
        _check(item.failures, abs(got - k) <= 1e-9 * k, f"collected {got!r} for k={k!r}")
        if i in self.lp_checks:
            lp = linprog(c, A_ub=-w[None, :], b_ub=[-k], bounds=list(zip(np.zeros(grid.bins), grid.mids)),
                         method="highs")
            objective_value = float(c @ rule.values)
            _check(item.failures, lp.status == 0, f"linprog status {lp.status}: {lp.message}")
            _check(item.failures, lp.status != 0 or abs(objective_value - lp.fun) <= 1e-7 * max(1.0, abs(lp.fun)),
                   f"knapsack objective {objective_value!r}, linprog {lp.fun!r}")

    def _check_calibration(self, item: Item, family: str, inputs, rule) -> None:
        strategy, _, _, budget = inputs
        k = budget.k
        if rule is None:
            # the family cannot reach k even at its most collecting parameter
            extreme = self.grid.lower if family == "small" else self.grid.upper
            full = center.collected(rules.realize(family, extreme, self.grid).realized, strategy, self.ftab, self.grid)
            _check(item.failures, k > full * (1.0 + 1e-12), f"{family} refused k={k!r} but reaches {full!r}")
            return
        got = center.collected(rule, strategy, self.ftab, self.grid)
        _check(item.failures, abs(got - k) <= 1e-6 * k, f"{family} collects {got!r} for k={k!r}")


WORKLOADS = {w.name: w for w in (ExanteSweep, BlindedCap, CenterSweep)}


def guarded_pass(workload: Workload, index: int) -> list[Item]:
    """A pass that raised counts as one failed item, timed up to the raise."""
    start = time.perf_counter()
    try:
        return workload.run_pass(index)
    except Exception:
        return [Item(f"pass_{index}", "error", time.perf_counter() - start,
                     failures=[traceback.format_exc(limit=4)])]
