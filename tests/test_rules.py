"""Reference rules: calibration, diagnostics, bang-bang negative control."""

import numpy as np
import pytest

from metaprice import rules
from metaprice.bidder import Strategy
from metaprice.center import Budget, InfeasibleBudgetError, collected, constraint_weights, k_vcg, solve_center
from metaprice.distributions import gpd, tabulate_pdf
from metaprice.equilibrium import EquilibriumConfig, Instance, diagnose
from metaprice.grid import make_grid
from metaprice.rules import _node_values, calibrate, realize

GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)
F_TAB = tabulate_pdf(F_PARETO, GRID)
TRUTH = Strategy.const(0.0)


def blinded(sigma):
    """The Pareto instance with the bidder blinded by ``sigma``."""
    return Instance.build(F_PARETO, EquilibriumConfig(mode="blinded", mu_sigma=sigma, w_sigma=sigma), GRID)


class TestRealize:
    def test_vcg_is_zero(self):
        rule = realize("vcg", 0.0, GRID).realized
        assert np.all(rule.values == 0.0)

    def test_threshold_caps_at_constant(self):
        rule = realize("threshold", 3.0, GRID).realized
        assert np.allclose(rule.values, np.minimum(GRID.mids, 3.0))

    def test_small_charges_above_cutoff(self):
        rule = realize("small", 5.0, GRID).realized
        assert np.all(rule.values[GRID.mids < 4.8] == 0.0)
        assert np.allclose(rule.values[GRID.mids > 5.2], GRID.mids[GRID.mids > 5.2])

    def test_large_charges_below_cutoff(self):
        rule = realize("large", 5.0, GRID).realized
        assert np.allclose(rule.values[GRID.mids < 4.8], GRID.mids[GRID.mids < 4.8])
        assert np.all(rule.values[GRID.mids > 5.2] == 0.0)

    def test_envelope_always_satisfied(self):
        for family in ("vcg", "threshold", "small", "large"):
            for param in (0.0, 0.05, 3.33, 9.99, 10.0):
                rule = realize(family, param, GRID).realized
                assert np.all(rule.values >= 0.0)
                assert np.all(rule.values <= GRID.mids)


class TestCalibrate:
    def test_zero_budget_degenerates_to_vcg(self):
        budget = Budget(0.0, k_vcg(F_PARETO, GRID))
        for family in ("vcg", "threshold", "small", "large"):
            rule = calibrate(family, F_PARETO, TRUTH, budget, GRID).realized
            assert np.all(rule.values == 0.0)

    @pytest.mark.parametrize("family", ["threshold", "small", "large"])
    def test_budget_binds(self, family):
        budget = Budget.from_gamma(0.3, F_PARETO, GRID)
        ref = calibrate(family, F_PARETO, TRUTH, budget, GRID)
        got = collected(ref.realized, TRUTH, F_TAB, GRID)
        assert abs(got - budget.k) <= 1e-12 * budget.k

    def test_an_unknown_family_is_refused(self):
        with pytest.raises(ValueError, match="unknown reference family 'median'"):
            realize("median", 1.0, GRID)
        with pytest.raises(ValueError, match="unknown reference family 'median'"):
            calibrate("median", F_PARETO, TRUTH, Budget.from_gamma(0.1, F_PARETO, GRID), GRID)

    def test_vcg_cannot_meet_positive_budget(self):
        budget = Budget.from_gamma(0.1, F_PARETO, GRID)
        with pytest.raises(InfeasibleBudgetError):
            calibrate("vcg", F_PARETO, TRUTH, budget, GRID)

    def test_infeasible_budget_rejected(self):
        strat = Strategy.const(8.0)  # almost everything is lost mass
        budget = Budget.from_gamma(0.9, F_PARETO, GRID)
        with pytest.raises(InfeasibleBudgetError):
            calibrate("small", F_PARETO, strat, budget, GRID)

    def test_small_matches_center_solution_within_one_bin(self):
        # the knapsack's heavy-tail solution is the Small rule
        strat = Strategy.const(0.2)
        budget = Budget.from_gamma(0.25, F_PARETO, GRID)
        ref = calibrate("small", F_PARETO, strat, budget, GRID)
        center = solve_center(F_TAB, F_TAB, strat, budget, GRID)
        top = GRID.bins - 1  # unreachable top sliver differs by construction
        differs = np.flatnonzero(
            np.abs(ref.realized.values[:top] - center.values[:top]) > 1e-6 * (1 + GRID.mids[:top]))
        assert differs.size <= 2
        if differs.size:
            assert differs.max() - differs.min() <= 1

    def test_large_matches_center_solution_within_one_bin(self):
        f = gpd(0, 1, -0.1, 0, 10)
        ftab = tabulate_pdf(f, GRID)
        strat = Strategy.const(0.2)
        budget = Budget.from_gamma(0.25, f, GRID)
        ref = calibrate("large", f, strat, budget, GRID)
        center = solve_center(ftab, ftab, strat, budget, GRID)
        differs = np.flatnonzero(
            np.abs(ref.realized.values - center.values) > 1e-6 * (1 + GRID.mids))
        assert differs.size <= 2
        if differs.size:
            assert differs.max() - differs.min() <= 1

    @pytest.mark.parametrize("family", ["threshold", "small", "large"])
    def test_collected_monotone_in_parameter(self, family):
        w = constraint_weights(TRUTH, F_TAB, GRID)
        params = np.linspace(0, 10, 41)
        vals = [float(np.dot(w, realize(family, p, GRID).realized.values)) for p in params]
        diffs = np.diff(vals)
        if family == "small":
            assert np.all(diffs <= 1e-12)
        else:
            assert np.all(diffs >= -1e-12)


def bisected(family, shades, k):
    """The parameter a 100-step bisection on the budget row finds, and that row."""
    w = constraint_weights(shades, F_TAB, GRID)
    a, b = (GRID.upper, GRID.lower) if family == "small" else (GRID.lower, GRID.upper)
    for _ in range(100):
        mid = 0.5 * (a + b)
        if float(np.dot(w, _node_values(family, mid, GRID))) < k:
            a = mid
        else:
            b = mid
    return b, w


def take(family, w, param):
    """What the row ``w`` collects from the family member at ``param``."""
    return float(np.dot(w, realize(family, param, GRID).realized.values))


PROFILE = np.clip(0.4 + 0.2 * GRID.mids, 0.0, 2.0)  # a linear profile like center-sweep's blinded items
SHADES = {"truth": 0.0, "constant": 0.7, "profile": PROFILE}


class TestClosedFormCalibration:
    """The closed form agrees with a 100-step bisection on the same budget row."""

    def assert_agrees(self, family, shades, k, abs_tol=1e-9):
        want, w = bisected(family, shades, k)
        ref = calibrate(family, F_PARETO, shades, Budget(1.0, k), GRID)
        assert ref.param == pytest.approx(want, rel=0.0, abs=abs_tol)
        assert abs(take(family, w, ref.param) - k) <= 1e-12 * k
        return ref.param, w

    @pytest.mark.parametrize("family", ["threshold", "small", "large"])
    @pytest.mark.parametrize("shade", list(SHADES))
    def test_agrees_with_bisection(self, family, shade):
        for gamma in (0.01, 0.05, 0.17, 0.3, 0.45):
            self.assert_agrees(family, SHADES[shade], Budget.from_gamma(gamma, F_PARETO, GRID).k)

    @pytest.mark.parametrize("family", ["threshold", "small", "large"])
    @pytest.mark.parametrize("shade", list(SHADES))
    def test_k_at_a_breakpoint(self, family, shade):
        w = constraint_weights(SHADES[shade], F_TAB, GRID)
        knots = GRID.mids if family == "threshold" else GRID.edges
        for i in (3, 17, 30):
            param, _ = self.assert_agrees(family, SHADES[shade], take(family, w, knots[i]))
            assert param == pytest.approx(knots[i], rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("family", ["threshold", "small", "large"])
    @pytest.mark.parametrize("shade", [*SHADES, 1.5])  # at 1.5 the top nodes take nothing: the top is flat
    def test_k_at_full_collection(self, family, shade):
        shades = SHADES.get(shade, shade)
        w = constraint_weights(shades, F_TAB, GRID)
        full = take(family, w, GRID.lower if family == "small" else GRID.upper)
        # Small collects (e_1^2 - c^2) / 2h in bin 0, flat at the cutoff 0: there a last-bit
        # change of k moves the cutoff by about sqrt(2h * 1e-16 * k / w_0), some 1e-8
        self.assert_agrees(family, shades, full, abs_tol=1e-7 if family == "small" else 1e-9)

    @pytest.mark.parametrize("family", ["threshold", "small", "large"])
    def test_k_in_the_slack_above_full_collection(self, family):
        w = constraint_weights(0.7, F_TAB, GRID)
        extreme = GRID.lower if family == "small" else GRID.upper
        k = take(family, w, extreme) * (1.0 + 5e-13)
        param, _ = self.assert_agrees(family, 0.7, k)
        assert param == extreme

    @pytest.mark.parametrize("family", ["threshold", "small", "large"])
    def test_zero_weight_bins_inside_the_bracket(self, family):
        # bins 20-25 are lost, so their nodes take nothing and Small and Large are flat across them
        shades = np.where((GRID.mids > 4.0) & (GRID.mids < 5.2), GRID.upper, 0.0)
        w = constraint_weights(shades, F_TAB, GRID)
        assert np.all(w[20:26] == 0.0) and np.all(w[:20] > 0.0) and np.all(w[26:] > 0.0)
        knots = GRID.mids if family == "threshold" else GRID.edges
        for i in (20, 23, 26):
            flat = take(family, w, knots[i])
            for k in (flat * (1.0 - 1e-9), flat * (1.0 + 1e-9), flat * (1.0 - 1e-3), flat * (1.0 + 1e-3)):
                self.assert_agrees(family, shades, k)


    def test_a_threshold_below_a_positive_lower_bound_collects_the_budget(self):
        # on [2, 12] a cap at `lower` already collects 2 * sum(w) > k; the cap k / sum(w)
        # lies below `lower`, pays in every bin and collects k
        grid = make_grid(2, 12, 50, 200)
        f = gpd(2, 1, 1.0, 2, 12)
        budget = Budget.from_gamma(0.01, f, grid)
        ref = calibrate("threshold", f, 0.0, budget, grid)
        w = constraint_weights(0.0, tabulate_pdf(f, grid), grid)
        assert 0.0 < ref.param < grid.lower
        assert ref.param == pytest.approx(budget.k / w.sum(), rel=1e-12)
        assert abs(float(np.dot(w, ref.realized.values)) - budget.k) <= 1e-12 * budget.k

    def test_the_stall_check_refuses_a_parameter_that_misses_the_budget(self, monkeypatch):
        # the closed form lands on k; a parameter that does not is refused, not returned
        monkeypatch.setattr(rules, "_invert", lambda family, w, k, grid: 0.5 * grid.mids[0])
        with pytest.raises(InfeasibleBudgetError, match="stalled"):
            calibrate("threshold", F_PARETO, TRUTH, Budget.from_gamma(0.1, F_PARETO, GRID), GRID)


class TestDiagnose:
    def test_vcg_all_zero(self):
        rule = realize("vcg", 0.0, GRID).realized
        report = diagnose(rule, blinded(5.0))
        assert report["regret_at_truth"] == 0.0
        assert report["worst_case_regret"] == 0.0
        assert report["deviation_incentive"] == pytest.approx(0.0, abs=1e-9)
        assert report["best_response_shade"] == 0.0
        assert report["collected_at_truth"] == 0.0

    def test_threshold_worst_case_is_the_cap(self):
        rule = realize("threshold", 3.0, GRID).realized
        report = diagnose(rule, blinded(5.0))
        assert report["worst_case_regret"] == pytest.approx(3.0)

    def test_threshold_violates_bang_bang(self):
        # negative control: the capped rule has many interior bins
        rule = realize("threshold", 3.0, GRID).realized
        interior = np.sum((rule.values > 1e-9) & (rule.values < GRID.mids - 1e-9))
        assert interior > 1

    def test_small_vs_threshold_directions(self):
        # equal collected budget; computed, not assumed
        budget = Budget.from_gamma(0.3, F_PARETO, GRID)
        small = calibrate("small", F_PARETO, TRUTH, budget, GRID).realized
        threshold = calibrate("threshold", F_PARETO, TRUTH, budget, GRID).realized
        rep_small = diagnose(small, blinded(1000.0))
        rep_thresh = diagnose(threshold, blinded(1000.0))
        assert rep_thresh["worst_case_regret"] < rep_small["worst_case_regret"]
        assert rep_small["deviation_incentive"] < rep_thresh["deviation_incentive"]

    def test_report_serializes_flat(self):
        import json
        report = diagnose(realize("threshold", 2.0, GRID).realized, blinded(5.0))
        data = json.loads(json.dumps(report))
        assert set(data) == {
            "regret_at_truth", "worst_case_regret", "deviation_incentive",
            "best_response_shade", "retained_at_best_response",
            "collected_at_truth", "collected_at_strategy",
        }
