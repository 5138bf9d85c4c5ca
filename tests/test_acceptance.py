"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1, 2 and 8
exercise center-bidder equilibria at the stated budget fractions.  Where an
ex-ante equilibrium exists, a scan of every feasible shade must find the
best-response map crossing the damped loop's shade, and the published shade
is asserted at gamma 0.25.  Where the budget lies past the model's ex-ante
frontier (gamma >= 0.5 for the Pareto profits here), the loop must exit with
:class:`InfeasibleBudgetError` and an independent certificate must show that
the meta-game has no equilibrium: on every feasible shade the center's rule
(checked against HiGHS ``linprog``) leaves the bidder a strictly better
shade.  The published shades at those budgets are printed next to the
certificate, not asserted.  The blinded presets of criterion 8 are still
held to convergence within 50 rounds, which at sigma 2, 5 and 10 they do
not reach.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from metaprice.bidder import (TIE_RTOL, Strategy, _best_responses, best_response_constant,
                              regret_at_truth, shade_objective)
from metaprice.blinding import information
from metaprice.center import (Budget, InfeasibleBudgetError, collected, constraint_weights,
                              k_vcg, payment_rule, ratio_diagnostics, solve_center,
                              _greedy_fill)
from metaprice.cli import build_distribution, build_grid, preset_config
from metaprice.distributions import burr_xii, gpd, tabulate_pdf, truncated_normal, uniform
from metaprice.equilibrium import EquilibriumConfig, find_equilibrium
from metaprice.grid import Tabulated, make_grid
from metaprice.rules import calibrate

from test_bidder import blinded_regret_di
from test_center import knapsack_oracle

GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)

EQ_TOLERANCE = 1e-3
MAX_ROUNDS = 50

# Shade published for the ex-ante game at gamma 0.5 (and 0.75 in the sweep).
PUBLISHED_SHADE = 0.2
# Certificate scan spacing, center-versus-linprog agreement, and the relative
# slack the budget row keeps at the scan's last shade: HiGHS reports a budget
# that binds to within 5e-10 of capacity as infeasible, 5e-7 as feasible.
CERT_STEP = 0.01
LINPROG_RTOL = 1e-9
EDGE_SLACK = 1e-6


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def classify_bins(rule):
    mids = rule.grid.mids
    vals = rule.values
    lo = vals <= 1e-9
    hi = np.abs(vals - mids) <= 1e-9 * (1.0 + mids)
    frac = ~(lo | hi)
    return lo, hi, frac


def run_exante(f, gamma):
    cfg = EquilibriumConfig(mode="exante", gamma=gamma, max_rounds=MAX_ROUNDS,
                            tolerance=EQ_TOLERANCE)
    return find_equilibrium(f, cfg, GRID)


@dataclass(frozen=True)
class ExanteCertificate:
    """Scan of ``phi(s) = BR(center(s))`` over the feasible constant shades.

    An ex-ante equilibrium is a shade ``s`` that is a best response to the
    center's rule at ``s``.  The budget row can collect ``k`` only up to
    ``s_max``; past it the center has no rule.  On ``[0, s_max]`` the scan
    records, per shade, the reported best response (a witness), the margin
    ``shade_objective(s) - shade_objective(witness)`` in tie bands
    ``TIE_RTOL * (1 + |shade_objective(witness)|)``, and how far the greedy
    center is from HiGHS ``linprog`` on the same program.
    """

    s_max: float
    shades: np.ndarray
    responses: np.ndarray
    margins: np.ndarray
    linprog_gap: float
    infeasible_beyond: bool

    @property
    def no_equilibrium(self) -> bool:
        """Every feasible scan shade is beaten by its witness by more than a tie band."""
        return (self.infeasible_beyond and self.linprog_gap <= LINPROG_RTOL
                and bool(np.all(self.margins > 1.0)))

    def response_at(self, s):
        hit = np.flatnonzero(np.abs(self.shades - s) <= 1e-12)
        return float(self.responses[hit[0]]) if hit.size else None

    def sign_changes(self):
        """Scan brackets ``(a, b)`` on which ``BR(s) - s`` changes sign."""
        signs = np.sign(self.responses - self.shades)
        idx = np.flatnonzero(signs[:-1] != signs[1:])
        return [(float(self.shades[i]), float(self.shades[i + 1])) for i in idx]

    def summary(self):
        br = self.response_at(PUBLISHED_SHADE)
        return (f"s_max={self.s_max:.4f}, BR({PUBLISHED_SHADE})="
                + ("-" if br is None else f"{br:.4f}")
                + f", min BR(s)-s={np.min(self.responses - self.shades):.3f}"
                f", min margin={np.min(self.margins):.1f} tie bands"
                f", max |center-linprog|={self.linprog_gap:.1e}"
                f", infeasible past s_max={self.infeasible_beyond}")


def _capacity(s, ftab):
    return float(np.dot(constraint_weights(Strategy.const(s), ftab, GRID), GRID.mids))


@lru_cache(maxsize=None)
def exante_certificate(shape, gamma):
    """Certificate for GPD(0, 1, shape) profits at budget fraction ``gamma``.

    Uses neither the damped loop nor its convergence test, so it settles the
    existence question independently of :func:`find_equilibrium`.
    """
    f = gpd(0, 1, shape, 0, 10)
    ftab = tabulate_pdf(f, GRID)
    budget = Budget.from_gamma(gamma, f, GRID)
    k_edge = budget.k * (1.0 + EDGE_SLACK)

    coarse = CERT_STEP * np.arange(int(round((GRID.upper - GRID.lower) / CERT_STEP)) + 1)
    capacity = np.array([_capacity(s, ftab) for s in coarse])
    feasible = capacity >= k_edge
    n = int(np.argmin(feasible))
    assert n > 0, "the scan needs a feasible truthful shade and an infeasible top shade"
    infeasible_beyond = bool(np.all(capacity[n:] < budget.k))
    lo, hi = coarse[n - 1], coarse[n]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _capacity(mid, ftab) >= k_edge else (lo, mid)
    shades = np.append(coarse[:n], lo)
    s_max = float(lo)

    c = ftab.bin_masses()
    bounds = list(zip(np.zeros(GRID.bins), GRID.mids))
    responses, margins, gap = [], [], 0.0
    for s in shades:
        strategy = Strategy.const(float(s))
        rule = solve_center(ftab, ftab, strategy, budget, GRID)
        w = constraint_weights(strategy, ftab, GRID)
        lp = linprog(c, A_ub=-w[None, :], b_ub=[-budget.k], bounds=bounds, method="highs")
        if lp.status != 0:
            gap = np.inf
        else:
            gap = max(gap, abs(float(np.dot(c, rule.values)) - lp.fun) / max(abs(lp.fun), 1e-300))
        witness = best_response_constant(rule, ftab, GRID)
        best = shade_objective(witness, rule, ftab, GRID)
        band = TIE_RTOL * (1.0 + abs(best))
        responses.append(witness)
        margins.append((shade_objective(float(s), rule, ftab, GRID) - best) / band)
    return ExanteCertificate(s_max, shades, np.array(responses), np.array(margins),
                             gap, infeasible_beyond)


def certify_no_equilibrium(f, shape, gamma):
    """Documented outcome past the frontier: exit 2 from the loop, certified by the scan."""
    try:
        run_exante(f, gamma)
        outcome, raised = "loop returned", False
    except InfeasibleBudgetError:
        outcome, raised = "InfeasibleBudgetError (exit 2)", True
    cert = exante_certificate(shape, gamma)
    good = raised and cert.no_equilibrium
    return good, (f"{outcome}, no equilibrium certified={cert.no_equilibrium} "
                  f"[{cert.summary()}]")


def test_criterion_01_shade_reproduction():
    """GPD shapes {-0.1, 0.01, 1} at gamma 0.5: certified to have no ex-ante equilibrium.

    The published shade 0.2 +/- 0.1 is not an equilibrium of this model
    (the bidder's best response to the center's rule there is printed as
    BR(0.2)); each instance must exit with InfeasibleBudgetError and carry a
    certificate that no feasible shade is a best response.
    """
    gamma = 0.5
    lines = []
    ok = True
    for shape in (-0.1, 0.01, 1.0):
        good, detail = certify_no_equilibrium(gpd(0, 1, shape, 0, 10), shape, gamma)
        lines.append(f"shape {shape} gamma {gamma} (published s*={PUBLISHED_SHADE}+/-0.1): {detail}")
        ok = ok and good
    report(1, "shade reproduction", ok, "; ".join(lines))


def test_criterion_02_budget_sweep():
    """Shape 1: shade 0.1 +/- 0.05 at gamma 0.25, monotone up to 0.4, none at 0.5 and 0.75.

    At 0.25, 0.3 and 0.4 (README) the certificate scan must fail: some
    feasible shade is within a tie band of its best response, and
    ``BR(s) - s`` changes sign within 0.01 of the damped loop's shade.  The
    loop must converge at 0.25, where the published shade is asserted; at
    0.3 it cycles and only its shade enters the monotonicity check.  Budgets
    0.5 and 0.75 must exit with InfeasibleBudgetError and be certified.
    """
    lines = []
    shades = {}
    ok = True
    for gamma in (0.25, 0.3, 0.4):
        try:
            trace = run_exante(F_PARETO, gamma)
        except InfeasibleBudgetError as exc:
            ok = False
            lines.append(f"gamma {gamma}: infeasible ({exc})")
            continue
        shade = shades[gamma] = trace.strategy.constant
        cert = exante_certificate(1.0, gamma)
        brackets = cert.sign_changes()
        near = [(a, b) for a, b in brackets if a - CERT_STEP <= shade <= b + CERT_STEP]
        good = not cert.no_equilibrium and bool(near)
        if gamma == 0.25:
            good = good and trace.converged and abs(shade - 0.1) <= 0.05
        lines.append(f"gamma {gamma}{' (published s*=0.1+/-0.05)' if gamma == 0.25 else ''}: "
                     f"s*={shade:.4f} converged={trace.converged}@{trace.n_rounds}, "
                     f"BR(s)-s changes sign on {near} of {len(brackets)} brackets, "
                     f"certificate fails={not cert.no_equilibrium} [{cert.summary()}]")
        ok = ok and good
    for gamma in (0.5, 0.75):
        good, detail = certify_no_equilibrium(F_PARETO, 1.0, gamma)
        published = f" (published s*={PUBLISHED_SHADE}+/-0.05)" if gamma == 0.75 else ""
        lines.append(f"gamma {gamma}{published}: {detail}")
        ok = ok and good

    seq = [shades.get(g) for g in (0.25, 0.3, 0.4)]
    ok_monotone = (all(v is not None for v in seq)
                   and all(a <= b + 1e-9 for a, b in zip(seq, seq[1:])))
    report(2, "budget sweep", ok and ok_monotone,
           "; ".join(lines) + f"; monotone={ok_monotone}")


def test_criterion_03_rule_shapes():
    """Large / Small / both-extremes rule shapes, <= 1 fractional bin each.

    Computed against a constant probe shade of 0.2 at gamma 0.5 (the
    published shade, not an equilibrium of this model: see criterion 1);
    the knapsack solution's shape is strategy-robust.
    """
    strat = Strategy.const(0.2)
    details = []
    ok = True

    def solve(f):
        ftab = tabulate_pdf(f, GRID)
        budget = Budget.from_gamma(0.5, f, GRID)
        rule = solve_center(ftab, ftab, strat, budget, GRID)
        w = constraint_weights(strat, ftab, GRID)
        return rule, w

    # shape -0.1 -> Large: full payments on an initial segment, zeros above
    rule, _ = solve(gpd(0, 1, -0.1, 0, 10))
    lo, hi, frac = classify_bins(rule)
    hi_idx = np.flatnonzero(hi)
    good = (frac.sum() <= 1 and hi_idx.size > 0 and hi_idx[0] == 0
            and np.all(np.diff(hi_idx) == 1)
            and np.all(lo[hi_idx[-1] + 1 + frac.sum():]))
    details.append(f"large(shape -0.1): hi=[0,{hi_idx[-1]}] frac={frac.sum()} ok={good}")
    ok = ok and good

    # shape 1 -> Small: zeros, then full payments; the top bin is unreachable
    # once bidders shade (its constraint weight is zero) and stays empty
    rule, w = solve(F_PARETO)
    lo, hi, frac = classify_bins(rule)
    hi_idx = np.flatnonzero(hi)
    trailing = np.flatnonzero(lo & (np.arange(50) > hi_idx[-1])) if hi_idx.size else np.array([])
    good = (frac.sum() <= 1 and hi_idx.size > 0
            and np.all(np.diff(hi_idx) == 1)
            and np.all(lo[: hi_idx[0] - frac.sum()])
            and np.all(w[trailing] <= 1e-12))
    details.append(f"small(shape 1): hi=[{hi_idx[0]},{hi_idx[-1]}] frac={frac.sum()} "
                   f"dead_top={trailing.size} ok={good}")
    ok = ok and good

    # Burr XII(2,1) -> charged at both extremes, exempt interior band
    rule, w = solve(burr_xii(2, 1, 0, 10))
    lo, hi, frac = classify_bins(rule)
    reachable = w > 1e-12
    lo_idx = np.flatnonzero(lo & reachable)
    good = (frac.sum() <= 1 and hi[0] and lo_idx.size >= 2
            and np.all(np.diff(lo_idx) == 1)
            and lo_idx[0] > 0 and lo_idx[-1] < np.flatnonzero(hi).max())
    details.append(f"burr(2,1): zero band=[{lo_idx[0] if lo_idx.size else '-'},"
                   f"{lo_idx[-1] if lo_idx.size else '-'}] frac={frac.sum()} ok={good}")
    ok = ok and good

    report(3, "rule shapes", ok, "; ".join(details))


def test_criterion_04_bang_bang_over_random_instances():
    """At most one strictly interior bin across 100 randomized instances."""
    rng = np.random.RandomState(20240809)
    worst = 0
    for trial in range(100):
        family = rng.randint(4)
        if family == 0:
            f = gpd(0, 1, rng.uniform(-0.12, 1.2), 0, 10)
        elif family == 1:
            f = burr_xii(rng.uniform(0.8, 3.0), rng.uniform(0.6, 2.0), 0, 10)
        elif family == 2:
            f = truncated_normal(rng.uniform(1, 8), rng.uniform(0.5, 3.0), 0, 10)
        else:
            f = uniform(0, 10)
        if rng.rand() < 0.5:
            strat = Strategy.const(rng.uniform(0, 1.5))
        else:
            slope = rng.uniform(0, 0.5)
            strat = Strategy.functional(Tabulated(GRID, slope * GRID.mids, "strategy"))
        ftab = tabulate_pdf(f, GRID)
        w = constraint_weights(strat, ftab, GRID)
        capacity = float(np.dot(w, GRID.mids))
        kv = k_vcg(f, GRID)
        k = rng.uniform(0, min(0.95 * capacity, kv))
        budget = Budget(k / kv, kv)
        rule = solve_center(ftab, ftab, strat, budget, GRID)
        interior = int(np.sum((rule.values > 1e-9) & (rule.values < GRID.mids - 1e-9)))
        worst = max(worst, interior)
    report(4, "bang-bang structure", worst <= 1, f"max interior bins over 100 instances: {worst}")


def test_criterion_05_greedy_equals_oracle():
    """Greedy knapsack objective equals brute-force LP enumeration, B <= 10."""
    rng = np.random.RandomState(5150)
    worst_rel = 0.0
    for _ in range(150):
        n = rng.randint(2, 11)
        c = rng.uniform(0, 1, n)
        c[rng.uniform(size=n) < 0.25] = 0.0
        w = rng.uniform(0, 1, n)
        w[rng.uniform(size=n) < 0.25] = 0.0
        ub = rng.uniform(0.1, 5.0, n)
        capacity = float(np.dot(w, ub))
        if capacity <= 0:
            continue
        k = rng.uniform(0, capacity)
        r = _greedy_fill(c, w, ub, k)
        got = float(np.dot(c, r))
        want = knapsack_oracle(c, w, ub, k)
        worst_rel = max(worst_rel, abs(got - want) / max(1.0, abs(want)))
    report(5, "greedy equals LP oracle", worst_rel <= 1e-9, f"worst relative gap: {worst_rel:.2e}")


def test_criterion_06_exponential_degeneracy():
    """Near-exponential profits: constant fill ratio, tie order irrelevant."""
    f = gpd(0, 1, 1e-6, 0, 10)
    strat = Strategy.const(0.2)
    rho = ratio_diagnostics(f, strat, GRID)
    valid = GRID.edges[1:] + 0.2 <= 10.0 + 1e-12
    spread = float((rho[valid].max() - rho[valid].min()) / rho[valid].mean())
    budget = Budget.from_gamma(0.25, f, GRID)
    ftab = tabulate_pdf(f, GRID)
    masses = ftab.bin_masses()
    obj_low = float(np.dot(masses, solve_center(ftab, ftab, strat, budget, GRID).values))
    # the opposite tie order: fill the reversed bins, lowest index first
    w = constraint_weights(strat, ftab, GRID)
    obj_high = float(np.dot(masses, _greedy_fill(masses[::-1], w[::-1], GRID.mids[::-1], budget.k)[::-1]))
    gap = abs(obj_low - obj_high)
    report(6, "exponential degeneracy", spread < 1e-3 and gap < 1e-6,
           f"ratio spread {spread:.2e}; tie-order objective gap {gap:.2e}")


def test_criterion_07_blinding_limits():
    """Wide blinding -> constant shade; sharp blinding -> bid the critical value."""
    identity_rule = payment_rule(GRID, GRID.mids)
    details = []

    wide = _best_responses(identity_rule, information(F_PARETO, 1000.0, 1000.0, GRID)[1], GRID)[0]
    flat = float(np.max(np.abs(wide - wide.mean())))
    ok = flat < GRID.width
    details.append(f"sigma=1000 max|s-mean|={flat:.3f}")

    sharp = _best_responses(identity_rule, information(F_PARETO, 0.05, 0.05, GRID)[1], GRID)[0]
    track = float(np.max(np.abs(sharp - GRID.mids)))
    ok = ok and track < GRID.width
    details.append(f"sigma=0.05 max|s-psi|={track:.3f}")

    gaps = []
    for sigma in (1000.0, 10.0, 5.0, 2.0):
        s = _best_responses(identity_rule, information(F_PARETO, sigma, sigma, GRID)[1], GRID)[0]
        gaps.append(float(np.mean(np.abs(s - GRID.mids))))
    monotone = all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:]))
    ok = ok and monotone
    details.append("mean|s-psi| @ {1000,10,5,2} = " + ", ".join(f"{g:.3f}" for g in gaps))

    report(7, "blinding limits", ok, "; ".join(details))


def preset_instances():
    """Preset lines with their documented outcome: converges, or no equilibrium."""
    for shape in (-0.1, 0.01, 1.0):
        yield (f"exante-pareto --shape {shape}",
               preset_config("exante-pareto", {"shape": str(shape)}), "converges")
    for gamma in (0.25, 0.5, 0.75):
        yield (f"exante-pareto --gamma {gamma}", preset_config("exante-pareto", {"gamma": str(gamma)}),
               "converges" if gamma < 0.5 else "no equilibrium")
    yield "exante-burr --c 2 --k 1", preset_config("exante-burr", {"c": "2", "k": "1"}), "converges"
    for sigma in (2.0, 5.0, 10.0, 1000.0):
        yield (f"blinded-pareto --sigma {sigma}",
               preset_config("blinded-pareto", {"sigma": str(sigma)}), "converges")


def test_criterion_08_preset_convergence():
    """Every preset converges within 50 rounds at tolerance 1e-3, or is certified to have no equilibrium."""
    lines = []
    ok = True
    for label, config, expected in preset_instances():
        grid = build_grid(config)
        f = build_distribution(config, grid)
        if expected == "no equilibrium":
            assert config.mode == "exante" and config.distribution["family"] == "gpd"
            assert grid == GRID
            good, detail = certify_no_equilibrium(f, config.distribution["shape"], config.gamma)
            lines.append(f"{label}: {detail}")
            ok = ok and good
            continue
        cfg = EquilibriumConfig(mode=config.mode, gamma=config.gamma,
                                mu_sigma=config.mu_sigma, w_sigma=config.w_sigma,
                                alpha=config.alpha, max_rounds=MAX_ROUNDS,
                                tolerance=EQ_TOLERANCE)
        try:
            trace = find_equilibrium(f, cfg, grid)
            last = trace.rounds[-1]
            lines.append(f"{label} (gamma {config.gamma}): converged={trace.converged}@{trace.n_rounds}"
                         + ("" if trace.converged else
                            f" (last r_delta={last.r_delta:.2g}, s_delta={last.s_delta:.2g})"))
            ok = ok and trace.converged
        except InfeasibleBudgetError:
            lines.append(f"{label} (gamma {config.gamma}): infeasible")
            ok = False
    report(8, "preset convergence", ok, "; ".join(lines))


def test_criterion_09_vcg_fixed_point():
    """gamma = 0 yields the exact VCG fixed point: zero rule, zero shade, zero incentive."""
    trace = run_exante(F_PARETO, 0.0)
    rule = trace.rule
    shade = trace.strategy.constant
    ftab = tabulate_pdf(F_PARETO, GRID)
    di_exante = regret_at_truth(rule, F_PARETO, GRID) - shade_objective(shade, rule, ftab, GRID)
    di_blinded = blinded_regret_di(rule, F_PARETO, 5.0, GRID)
    ok = (trace.converged and trace.n_rounds == 1
          and np.all(rule.values == 0.0) and shade == 0.0
          and di_exante == 0.0 and di_blinded == 0.0)
    report(9, "VCG fixed point", ok,
           f"rounds={trace.n_rounds} max|r|={float(np.abs(rule.values).max())} "
           f"s*={shade} DI={di_exante}, {di_blinded}")


def acceptance_scalar_battery(subsamples):
    """Scalars a run of the suite reports, at a given sub-sampling level."""
    grid = make_grid(0, 10, 50, subsamples)
    f = gpd(0, 1, 1.0, 0, 10)
    f_neg = gpd(0, 1, -0.1, 0, 10)
    ftab = tabulate_pdf(f, grid)
    truth = Strategy.const(0.0)
    identity_rule = payment_rule(grid, grid.mids)
    small = calibrate("small", f, truth, Budget.from_gamma(0.3, f, grid), grid).realized
    large = calibrate("large", f_neg, truth, Budget.from_gamma(0.3, f_neg, grid), grid).realized
    threshold = calibrate("threshold", f, truth, Budget.from_gamma(0.3, f, grid), grid).realized

    scalars = {"k_vcg": k_vcg(f, grid), "k_vcg_neg": k_vcg(f_neg, grid)}
    for name, rule, dist in (("identity", identity_rule, f), ("small", small, f),
                             ("large", large, f_neg), ("threshold", threshold, f)):
        scalars[f"regret_{name}"] = regret_at_truth(rule, dist, grid)
        scalars[f"wc_{name}"] = float(rule.values.max())
        scalars[f"collected_{name}"] = collected(rule, truth, tabulate_pdf(dist, grid), grid)
    # deviation incentives are reported where their magnitude supports a
    # relative metric; at wider blinding the incentive shrinks to a small
    # difference of near-equal terms and only its components stay reportable
    for sigma in (2.0, 5.0):
        scalars[f"di_small_{sigma:g}"] = blinded_regret_di(small, f, sigma, grid)
    for sigma in (2.0, 5.0, 10.0):
        scalars[f"retained_small_{sigma:g}"] = (regret_at_truth(small, f, grid)
                                                - blinded_regret_di(small, f, sigma, grid))

    trace = find_equilibrium(f, EquilibriumConfig(mode="exante", gamma=0.25), grid)
    shade = trace.strategy.constant
    scalars["eq_shade"] = shade
    scalars["eq_regret"] = regret_at_truth(trace.rule, f, grid)
    scalars["eq_collected"] = collected(trace.rule, trace.strategy, ftab, grid)
    scalars["eq_di"] = scalars["eq_regret"] - shade_objective(shade, trace.rule, ftab, grid)
    return scalars


def test_criterion_10_di_nonnegative_and_quadrature_stable():
    """DI >= -1e-6 on the battery; doubling S moves every reported scalar < 1e-3 relative."""
    truth = Strategy.const(0.0)
    rules = {
        "identity": (payment_rule(GRID, GRID.mids), F_PARETO),
        "small": (calibrate("small", F_PARETO, truth,
                            Budget.from_gamma(0.3, F_PARETO, GRID), GRID).realized, F_PARETO),
        "threshold": (calibrate("threshold", F_PARETO, truth,
                                Budget.from_gamma(0.3, F_PARETO, GRID), GRID).realized, F_PARETO),
        "zero": (payment_rule(GRID, np.zeros(50)), F_PARETO),
    }
    min_di = np.inf
    for name, (rule, dist) in rules.items():
        for sigma in (2.0, 5.0, 10.0, 1000.0):
            min_di = min(min_di, blinded_regret_di(rule, dist, sigma, GRID))
    ok_nonneg = min_di >= -1e-6

    base = acceptance_scalar_battery(200)
    fine = acceptance_scalar_battery(400)
    worst_key, worst_rel = None, 0.0
    for key in base:
        rel = abs(base[key] - fine[key]) / max(abs(fine[key]), 1e-12)
        if rel > worst_rel:
            worst_key, worst_rel = key, rel
    ok_stable = worst_rel < 1e-3
    report(10, "DI nonnegativity and quadrature stability", ok_nonneg and ok_stable,
           f"min DI {min_di:.2e}; worst S-doubling drift {worst_rel:.2e} ({worst_key})")
