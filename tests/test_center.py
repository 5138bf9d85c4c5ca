"""Center knapsack: scatter weights, exact greedy vs brute-force LP, shapes."""

import numpy as np
import pytest

from metaprice.bidder import Strategy, retained_integrand
from metaprice.center import (Budget, InfeasibleBudgetError, PaymentRule, collected, constraint_weights,
                              k_vcg, payment_rule, ratio_diagnostics, solve_center)
from metaprice import equilibrium
from metaprice.center import _greedy_fill
from metaprice.cli import PRESETS, _write_csv, build_distribution, build_grid, preset_config, read_rule_csv
from metaprice.distributions import burr_xii, cdf, fit_empirical, gpd, tabulate_pdf, uniform
from metaprice.equilibrium import EquilibriumConfig, find_equilibrium
from metaprice.grid import Tabulated, make_grid
from metaprice.rules import calibrate, realize
from test_distributions import families

GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)
F_TAB = tabulate_pdf(F_PARETO, GRID)


def knapsack_oracle(c, w, ub, k):
    """Brute-force optimum of min c.r s.t. w.r >= k, 0 <= r <= ub.

    Enumerates every extreme point: a set of bins at their upper bound plus
    at most one fractional bin.  Exact for small instances.
    """
    n = len(c)
    if k <= 1e-15:
        return 0.0
    best = np.inf
    for mask in range(1 << n):
        sel = [(mask >> i) & 1 for i in range(n)]
        coll = sum(w[i] * ub[i] for i in range(n) if sel[i])
        cost = sum(c[i] * ub[i] for i in range(n) if sel[i])
        if coll >= k - 1e-12:
            best = min(best, cost)
        for j in range(n):
            if sel[j] or w[j] <= 0.0:
                continue
            frac = (k - coll) / w[j]
            if -1e-12 <= frac <= ub[j] + 1e-12:
                best = min(best, cost + c[j] * min(max(frac, 0.0), ub[j]))
    return best


class TestPaymentRuleIsANodeTable:
    @pytest.mark.parametrize("source", ["payment_rule", "realize", "csv"])
    def test_every_source_gives_a_rule_tabulation(self, tmp_path, source):
        if source == "payment_rule":
            rule = payment_rule(GRID, 0.5 * GRID.mids)
        elif source == "realize":
            rule = realize("small", 4.3, GRID).realized
        else:
            path = tmp_path / "rule.csv"
            _write_csv(path, ["psi", "payment_above_critical"], zip(GRID.mids, 0.5 * GRID.mids))
            rule = read_rule_csv(path, GRID)
            assert np.array_equal(rule.values, 0.5 * GRID.mids)
        assert isinstance(rule, PaymentRule) and isinstance(rule, Tabulated)
        assert rule.kind == "rule"
        assert rule(GRID.mids[7]) == rule.values[7]

    def test_envelope_and_tabulation_checks_raise(self, tmp_path):
        for vals in (-np.eye(50)[3], GRID.mids + np.eye(50)[3]):
            with pytest.raises(ValueError, match="0 <= r"):
                PaymentRule(GRID, vals)
        path = tmp_path / "rule.csv"
        path.write_text("psi,value\n0.1,0.0\n0.3,0.5\n")
        with pytest.raises(ValueError, match="0 <= r"):
            read_rule_csv(path, make_grid(0, 0.4, 2, 10))
        for vals in (np.zeros(49), np.full(50, np.nan)):
            with pytest.raises(ValueError):
                PaymentRule(GRID, vals)

    def test_kind_is_fixed_to_rule(self):
        with pytest.raises(TypeError):
            PaymentRule(GRID, GRID.mids, "density")
        with pytest.raises(ValueError, match="strategy"):
            Strategy.functional(payment_rule(GRID, GRID.mids))

    def test_one_evaluation_is_one_tabulated_call(self, monkeypatch):
        calls = []
        evaluate = Tabulated.__call__

        def counting(self, x):
            calls.append(self)
            return evaluate(self, x)

        monkeypatch.setattr(Tabulated, "__call__", counting)
        rule = payment_rule(GRID, GRID.mids)
        rule(1.0)
        rule(GRID.samples)
        assert len(calls) == 2 and all(c is rule for c in calls)
        # the bidder's rows evaluate the rule by its pieces, with the same bits
        xs, shades = GRID.samples, np.array([0.5, 1.0, 2.0])
        rows = retained_integrand(shades, rule, xs)
        for s, row in zip(shades, rows):
            assert row.tobytes() == np.where(xs < s, xs, np.interp(xs - s, GRID.mids, rule.values)).tobytes()


class TestConstraintWeights:
    def test_zero_shade_is_identity(self):
        w = constraint_weights(Strategy.const(0.0), F_TAB, GRID)
        assert np.allclose(w, F_TAB.bin_masses(), atol=1e-12)

    def test_one_bin_shift_drops_first_mass(self):
        m = F_TAB.bin_masses()
        w = constraint_weights(Strategy.const(GRID.width), F_TAB, GRID)
        assert np.allclose(w[:-1], m[1:], atol=1e-12)
        assert w[-1] == 0.0

    def test_full_shade_collapses_to_first_node(self):
        strat = Strategy.functional(Tabulated(GRID, GRID.mids.copy(), "strategy"))
        w = constraint_weights(strat, F_TAB, GRID)
        assert w[0] == pytest.approx(F_TAB.bin_masses().sum())
        assert np.all(w[1:] == 0.0)

    def test_matches_direct_quadrature_of_shifted_rule(self):
        # oracle: \int r(psi - s(psi)) h(psi) dpsi for a smooth test rule,
        # against the scatter's bilinear lumping
        rule_vals = 0.5 * GRID.mids
        rule = payment_rule(GRID, rule_vals)
        for s in (0.0, 0.13, 0.4, 1.7):
            w = constraint_weights(Strategy.const(s), F_TAB, GRID)
            lumped = float(np.dot(w, rule_vals))
            xs = GRID.samples
            direct = float(np.dot(np.where(xs >= s, np.asarray(rule(xs - s)), 0.0) * F_TAB(xs),
                                  np.full(xs.shape, GRID.sample_width)))
            assert lumped == pytest.approx(direct, rel=5e-3, abs=5e-4)

    def test_collected_helper_agrees(self):
        rule = payment_rule(GRID, np.where(GRID.mids >= 5, GRID.mids, 0.0))
        strat = Strategy.const(0.3)
        w = constraint_weights(strat, F_TAB, GRID)
        assert collected(rule, strat, F_TAB, GRID) == pytest.approx(float(np.dot(w, rule.values)))


def _weights_with_add_at(shades, constraint_density, grid):
    """``constraint_weights`` as four ``np.add.at`` scatters: the reference for its bytes."""
    masses = constraint_density.bin_masses()
    mids = grid.mids
    shifted = mids - shades
    w = np.zeros(grid.bins)
    won = shifted >= 0.0
    pos = shifted[won]
    m = masses[won]
    below = pos <= mids[0]
    above = pos >= mids[-1]
    mid_zone = ~(below | above)
    np.add.at(w, 0, m[below].sum())
    np.add.at(w, grid.bins - 1, m[above].sum())
    if mid_zone.any():
        p = pos[mid_zone]
        mm = m[mid_zone]
        j = np.searchsorted(mids, p, side="right") - 1
        lam = (p - mids[j]) / grid.width
        np.add.at(w, j, mm * (1.0 - lam))
        np.add.at(w, j + 1, mm * lam)
    return w


def _fill_with_lexsort(c, w, ub, k):
    """``_greedy_fill`` ordering bins by ``lexsort`` on ``np.where`` ratios: the reference for its bytes."""
    r = np.zeros_like(ub)
    if k <= 0.0:
        return r
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(c > 0.0, w / c, np.inf)
    order = np.lexsort((np.arange(len(ub)), -ratio))
    order = order[w[order] > 0.0]
    wo, ubo = w[order], ub[order]
    fits = np.subtract.accumulate(np.concatenate(([k], ubo * wo)))[:-1] / wo
    m = np.append(np.flatnonzero(fits < ubo), len(order))[0]
    r[order[:m + 1]] = np.clip(fits[:m + 1], 0.0, ubo[:m + 1])
    return r


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOnePassBudgetRow:
    """The budget row's one ``np.bincount`` and the fill's stable ``argsort`` give
    the bytes of four ``np.add.at`` scatters and of a ``lexsort``."""

    @staticmethod
    def densities(rng):
        yield F_TAB
        for _ in range(3):
            values = rng.uniform(0.0, 1.0, GRID.bins)
            values[rng.uniform(size=GRID.bins) < 0.2] = 0.0
            yield Tabulated(GRID, values, "density")

    def assert_same_row(self, shades, density):
        want = _weights_with_add_at(shades, density, GRID)
        assert _same_bytes(constraint_weights(shades, density, GRID), want)

    def test_constant_shades(self):
        rng = np.random.RandomState(240)
        for density in self.densities(rng):
            for s in np.concatenate(([0.0, GRID.width, GRID.mids[0], GRID.upper, 11.0], rng.uniform(0, 11, 60))):
                self.assert_same_row(float(s), density)

    def test_profiles_with_repeated_target_nodes(self):
        # several bins land on one node, or exactly on it
        rng = np.random.RandomState(241)
        for density in self.densities(rng):
            for _ in range(30):
                targets = rng.randint(0, GRID.bins, GRID.bins)
                offsets = np.where(rng.uniform(size=GRID.bins) < 0.5, 0.0, rng.uniform(0, GRID.width, GRID.bins))
                self.assert_same_row(np.maximum(GRID.mids - GRID.mids[targets] - offsets, 0.0), density)

    def test_profiles_with_every_bin_lost(self):
        rng = np.random.RandomState(242)
        for density in self.densities(rng):
            for _ in range(10):
                shades = GRID.mids + rng.uniform(1e-9, 3.0, GRID.bins)
                assert np.all(constraint_weights(shades, density, GRID) == 0.0)
                self.assert_same_row(shades, density)

    def test_profiles_with_every_bin_clamped_onto_the_top_node(self):
        rng = np.random.RandomState(243)
        for density in self.densities(rng):
            for _ in range(10):
                shades = GRID.mids - GRID.mids[-1] - rng.uniform(0.0, 2.0, GRID.bins)
                w = constraint_weights(shades, density, GRID)
                assert np.all(w[:-1] == 0.0)
                self.assert_same_row(shades, density)

    def test_random_profiles(self):
        rng = np.random.RandomState(244)
        for density in self.densities(rng):
            for _ in range(30):
                self.assert_same_row(rng.uniform(0.0, 11.0, GRID.bins), density)

    def test_knapsacks_with_tied_ratios_and_zero_costs_or_weights(self):
        rng = np.random.RandomState(245)
        for trial in range(400):
            n = rng.randint(2, 60)
            c = rng.randint(0, 4, n) / 4.0  # few distinct values: many tied ratios
            w = rng.randint(0, 4, n) / 8.0
            if trial % 2:
                c = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.3)
                w = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.3)
            ub = rng.uniform(0.1, 5.0, n)
            cap = float(np.dot(w, ub))
            for k in (0.0, rng.uniform(0.0, cap), cap):
                if k > cap * (1.0 + 1e-12):
                    continue
                assert _same_bytes(_greedy_fill(c, w, ub, k), _fill_with_lexsort(c, w, ub, k)), trial


class TestSolveCenter:
    @pytest.mark.parametrize("gamma, k, message", [(-0.1, 1.0, "gamma must lie in"), (1.5, 1.0, "gamma must lie in"),
                                                   (0.25, 0.0, "k_vcg must be positive"),
                                                   (0.25, -1.0, "k_vcg must be positive")])
    def test_budget_rejects_gamma_outside_the_unit_interval_and_a_nonpositive_k_vcg(self, gamma, k, message):
        with pytest.raises(ValueError, match=message):
            Budget(gamma, k)

    def test_zero_budget_returns_vcg(self):
        budget = Budget(0.0, k_vcg(F_PARETO, GRID))
        rule = solve_center(F_TAB, F_TAB, Strategy.const(0.0), budget, GRID)
        assert np.all(rule.values == 0.0)

    def test_heavy_tail_selects_small_shape(self):
        budget = Budget.from_gamma(0.5, F_PARETO, GRID)
        rule = solve_center(F_TAB, F_TAB, Strategy.const(0.2), budget, GRID)
        vals = rule.values
        hi = np.flatnonzero(np.isclose(vals, GRID.mids))
        frac = np.flatnonzero((vals > 1e-9) & (vals < GRID.mids - 1e-9))
        assert len(frac) <= 1
        assert hi.size > 0
        # charged band sits at the top of the chargeable range; below it zeros
        assert np.all(vals[: hi.min() - (1 if frac.size else 0)][:-1] >= -1e-12)
        assert np.all(vals[: max(hi.min() - 1, 0)] <= 1e-9) or frac.size == 1
        assert hi.min() > 10  # cutoff well inside
        assert np.all(np.diff(hi) == 1)

    def test_finite_tail_selects_large_shape(self):
        f = gpd(0, 1, -0.1, 0, 10)
        ftab = tabulate_pdf(f, GRID)
        budget = Budget.from_gamma(0.5, f, GRID)
        rule = solve_center(ftab, ftab, Strategy.const(0.2), budget, GRID)
        vals = rule.values
        hi = np.flatnonzero(np.isclose(vals, GRID.mids))
        assert hi.min() == 0
        assert np.all(np.diff(hi) == 1)
        assert np.all(vals[hi.max() + 2:] <= 1e-9)

    def test_burr_charges_both_extremes(self):
        # peaked density: the exempt (zero) band is interior, charged bins on
        # both sides of it
        f = burr_xii(2, 1, 0, 10)
        ftab = tabulate_pdf(f, GRID)
        budget = Budget.from_gamma(0.5, f, GRID)
        rule = solve_center(ftab, ftab, Strategy.const(0.2), budget, GRID)
        vals = rule.values
        zero = np.flatnonzero(vals <= 1e-9)
        zero = zero[zero < GRID.bins - 1]  # ignore the unreachable top sliver
        assert zero.size >= 2
        assert np.all(np.diff(zero) == 1)  # one contiguous exempt band
        assert zero.min() > 0              # charged below it
        assert zero.max() < GRID.bins - 2  # charged above it
        assert vals[0] == pytest.approx(GRID.mids[0])

    def test_budget_binds_with_equality(self):
        for gamma in (0.05, 0.15, 0.3):
            budget = Budget.from_gamma(gamma, F_PARETO, GRID)
            strat = Strategy.const(0.2)
            rule = solve_center(F_TAB, F_TAB, strat, budget, GRID)
            got = collected(rule, strat, F_TAB, GRID)
            assert abs(got - budget.k) <= 1e-9 * max(1.0, budget.k)

    def test_objective_monotone_in_gamma(self):
        objs = []
        for gamma in (0.0, 0.1, 0.2, 0.3, 0.4):
            budget = Budget.from_gamma(gamma, F_PARETO, GRID)
            rule = solve_center(F_TAB, F_TAB, Strategy.const(0.2), budget, GRID)
            objs.append(float(np.dot(F_TAB.bin_masses(), rule.values)))
        assert all(a <= b + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_infeasible_budget_raises_with_shortfall(self):
        spike = fit_empirical([5.0] * 100, GRID)
        stab = tabulate_pdf(spike, GRID)
        budget = Budget(0.9, k_vcg(spike, GRID))
        with pytest.raises(InfeasibleBudgetError, match="shortfall"):
            solve_center(stab, stab, Strategy.const(4.0), budget, GRID)

    def test_tied_ratios_fill_from_the_lowest_bin(self):
        # uniform f at zero shade: w == c exactly, so every fill ratio is 1.0
        f = uniform(0, 10)
        ftab = tabulate_pdf(f, GRID)
        zero = Strategy.const(0.0)
        assert np.array_equal(constraint_weights(zero, ftab, GRID), ftab.bin_masses())
        budget = Budget.from_gamma(0.3, f, GRID)
        vals = solve_center(ftab, ftab, zero, budget, GRID).values
        j = int(np.searchsorted(np.cumsum(ftab.bin_masses() * GRID.mids), budget.k))
        assert 0 < j < GRID.bins - 1
        assert np.array_equal(vals[:j], GRID.mids[:j])
        assert 0.0 < vals[j] < GRID.mids[j]
        assert np.all(vals[j + 1:] == 0.0)

    def test_envelope_respected_exactly(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            gamma = rng.uniform(0, 0.4)
            s = rng.uniform(0, 1.0)
            budget = Budget.from_gamma(gamma, F_PARETO, GRID)
            rule = solve_center(F_TAB, F_TAB, Strategy.const(s), budget, GRID)
            assert np.all(rule.values >= 0.0)
            assert np.all(rule.values <= GRID.mids)


class TestGreedyAgainstOracle:
    def test_random_small_instances(self):
        rng = np.random.RandomState(2024)
        for trial in range(200):
            n = rng.randint(2, 11)
            c = rng.uniform(0, 1, n)
            c[rng.uniform(size=n) < 0.2] = 0.0
            w = rng.uniform(0, 1, n)
            w[rng.uniform(size=n) < 0.2] = 0.0
            ub = rng.uniform(0.1, 5.0, n)
            cap = float(np.dot(w, ub))
            if cap <= 0:
                continue
            k = rng.uniform(0, cap)
            r = _greedy_fill(c, w, ub, k)
            got = float(np.dot(c, r))
            want = knapsack_oracle(c, w, ub, k)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f"trial {trial}"
            assert float(np.dot(w, r)) >= k - 1e-9

    def test_bang_bang_structure(self):
        rng = np.random.RandomState(77)
        for _ in range(100):
            n = rng.randint(2, 30)
            c = rng.uniform(0, 1, n)
            w = rng.uniform(0, 1, n)
            ub = rng.uniform(0.1, 5.0, n)
            k = rng.uniform(0, float(np.dot(w, ub)))
            r = _greedy_fill(c, w, ub, k)
            interior = np.sum((r > 1e-12) & (r < ub - 1e-12))
            assert interior <= 1


def assert_one_marginal_bin(rule, collects, k):
    """At most one node strictly between 0 and its midpoint, and the budget row
    collecting ``k`` (``collects``, ``w . r``) to rounding."""
    inside = np.flatnonzero((rule.values > 0.0) & (rule.values < rule.grid.mids))
    assert inside.size <= 1, dict(zip(inside.tolist(), rule.values[inside].tolist()))
    assert collects == pytest.approx(k, rel=1e-12, abs=0.0)


class TestFillStopsAtTheMarginalBin:
    """The fill leaves nothing past its marginal bin: a remainder's rounding
    residue used to fill a bin or two more with dust (ROADMAP item 3)."""

    def test_pareto_at_shade_0_2(self):
        # the fill loop left bin 39 at 6.5e-16 beside the marginal bin 40 (4.157)
        budget = Budget(0.1, k_vcg(F_PARETO, GRID))
        rule = solve_center(F_TAB, F_TAB, 0.2, budget, GRID)
        assert_one_marginal_bin(rule, collected(rule, 0.2, F_TAB, GRID), budget.k)
        assert 0.0 < rule.values[40] < GRID.mids[40] and rule.values[39] == 0.0

    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_each_presets_first_rounds(self, monkeypatch, preset):
        # blinded-pareto's second round left dust in the loop
        solves = []

        def recording(objective, constraint, shades, budget, grid):
            rule = solve_center(objective, constraint, shades, budget, grid)
            solves.append((rule, collected(rule, shades, constraint, grid), budget.k))
            return rule

        monkeypatch.setattr(equilibrium, "solve_center", recording)
        config = preset_config(preset, {})
        grid = build_grid(config)
        find_equilibrium(build_distribution(config, grid),
                         EquilibriumConfig(mode=config.mode, gamma=config.gamma, mu_sigma=config.mu_sigma,
                                           w_sigma=config.w_sigma, max_rounds=5), grid)
        assert len(solves) == 5
        for rule, collects, k in solves:
            assert_one_marginal_bin(rule, collects, k)


class TestShadeProfile:
    """A shade profile is node values: a checked constant, the same float and
    the full array give the same bytes everywhere the center reads one."""

    @staticmethod
    def outputs(shades) -> list[bytes]:
        budget = Budget.from_gamma(0.2, F_PARETO, GRID)
        rule = solve_center(F_TAB, F_TAB, shades, budget, GRID)
        out = [constraint_weights(shades, F_TAB, GRID).tobytes(), rule.values.tobytes(),
               np.float64(collected(rule, shades, F_TAB, GRID)).tobytes(),
               ratio_diagnostics(F_PARETO, shades, GRID).tobytes()]
        for family in ("threshold", "small", "large"):
            out.append(calibrate(family, F_PARETO, shades, budget, GRID).realized.values.tobytes())
        return out

    @pytest.mark.parametrize("c", [0.0, 0.13, GRID.width, 0.4])
    def test_constant_forms_agree(self, c):
        checked = self.outputs(Strategy.const(c))
        assert self.outputs(c) == checked
        assert self.outputs(np.full(GRID.bins, c)) == checked

    def test_table_and_its_node_values_agree(self):
        tab = Tabulated(GRID, np.clip(0.1 + 0.05 * GRID.mids, 0.0, 0.5), "strategy")
        assert self.outputs(Strategy.functional(tab)) == self.outputs(tab.values)
        # the table evaluated at its own nodes returns its node values
        assert self.outputs(tab(GRID.mids)) == self.outputs(tab.values)


class TestRatioMethod:
    def test_ratio_direction_heavy_tail_rising(self):
        rho = ratio_diagnostics(F_PARETO, Strategy.const(0.2), GRID)
        valid = GRID.edges[1:] + 0.2 <= 10.0
        assert np.all(np.diff(rho[valid]) > 0.0)

    def test_ratio_direction_finite_tail_falling(self):
        f = gpd(0, 1, -0.1, 0, 10)
        rho = ratio_diagnostics(f, Strategy.const(0.2), GRID)
        valid = GRID.edges[1:] + 0.2 <= 10.0
        assert np.all(np.diff(rho[valid]) < 0.0)

    def test_exponential_ratio_constant_and_tie_order_irrelevant(self):
        f = gpd(0, 1, 1e-6, 0, 10)
        s = Strategy.const(0.2)
        rho = ratio_diagnostics(f, s, GRID)
        valid = GRID.edges[1:] + 0.2 <= 10.0
        spread = (rho[valid].max() - rho[valid].min()) / rho[valid].mean()
        assert spread < 1e-4
        budget = Budget.from_gamma(0.2, f, GRID)
        ftab = tabulate_pdf(f, GRID)
        low = solve_center(ftab, ftab, s, budget, GRID)
        # the opposite tie order: fill the reversed bins, lowest index first
        c, w = ftab.bin_masses(), constraint_weights(s, ftab, GRID)
        high = _greedy_fill(c[::-1], w[::-1], GRID.mids[::-1], budget.k)[::-1]
        obj_low = float(np.dot(c, low.values))
        obj_high = float(np.dot(c, high))
        assert abs(obj_low - obj_high) < 1e-6


def ratio_four_calls(f, s, grid):
    """``ratio_diagnostics`` as four ``cdf`` calls, one per edge set: the bytes it must keep."""
    base = np.asarray(cdf(f, grid.edges[1:])) - np.asarray(cdf(f, grid.edges[:-1]))
    shifted = np.asarray(cdf(f, grid.edges[1:] + s)) - np.asarray(cdf(f, grid.edges[:-1] + s))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(base > 0.0, shifted / np.where(base > 0.0, base, 1.0),
                        np.where(shifted > 0.0, np.inf, 0.0))


class TestRatioOneCdfCall:
    """One ``cdf`` call on the edges and both shifted edge sets gives the four-call bytes."""

    @pytest.mark.parametrize("name", list(families(0, 10, GRID)))
    def test_same_bytes_as_four_cdf_calls(self, name):
        rng = np.random.default_rng(1951)
        for lo, hi in ((0.0, 10.0), (1.0, 7.0)):
            for bins in (2, 5, 50):
                grid = make_grid(lo, hi, bins, 20)
                f = families(lo, hi, grid)[name]
                profiles = [rng.uniform(0.0, hi, bins), rng.uniform(0.0, 0.2 * (hi - lo), bins),
                            np.where(np.arange(bins) % 2, hi + 1.0, 0.0)]
                for s in [0.0, 0.1, grid.width, 0.5 * (hi - lo), hi - lo, hi + 3.0] + profiles:
                    got = ratio_diagnostics(f, s, grid)
                    assert got.shape == (bins,)
                    assert got.tobytes() == ratio_four_calls(f, s, grid).tobytes(), (lo, bins, s)

    def test_one_cdf_call_per_diagnostic(self, monkeypatch):
        import metaprice.center as center
        calls = []
        monkeypatch.setattr(center, "cdf", lambda f, x: calls.append(x.shape) or cdf(f, x))
        ratio_diagnostics(F_PARETO, np.full(GRID.bins, 0.2), GRID)
        assert calls == [(3 * GRID.bins + 1,)]


class TestKVcg:
    def test_uniform(self):
        assert k_vcg(uniform(0, 10), GRID) == pytest.approx(5.0, abs=1e-6)

    def test_truncated_exponential_closed_form(self):
        import math
        expected = (1 - 11 * math.exp(-10)) / (1 - math.exp(-10))
        assert k_vcg(gpd(0, 1, 0.0, 0, 10), GRID) == pytest.approx(expected, abs=1e-6)

    def test_point_mass_at_five(self):
        # histogram resolution: all mass in the bin containing 5, so the mean
        # sits at that bin's center
        f = fit_empirical([5.0] * 10, GRID)
        assert k_vcg(f, GRID) == pytest.approx(5.0, abs=GRID.width / 2 + 1e-9)
