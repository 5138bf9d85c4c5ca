"""Bidder objective, constant/functional best responses, deviation incentive."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from metaprice.bidder import (_BRENT_XATOL, Strategy, _best_responses, _brent_bounded, _local_minima,
                              _retained_row, _scan_shades, _sign, best_response_constant,
                              deviation_incentive, regret_at_truth, retained_integrand,
                              shade_objective)
from metaprice.blinding import information, posterior_table
from metaprice.center import payment_rule
from metaprice.distributions import gpd, pdf, tabulate_pdf, uniform
from metaprice.grid import Tabulated, make_grid
from metaprice.rules import realize

GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)
F_TAB = tabulate_pdf(F_PARETO, GRID)
UNIFORM_TAB = tabulate_pdf(uniform(0, 10), GRID)

ZERO_RULE = payment_rule(GRID, np.zeros(50))
IDENTITY_RULE = payment_rule(GRID, GRID.mids)


def blinded_regret_di(rule, f, mu_sigma, grid):
    """Deviation incentive when the bidder answers each signal's posterior."""
    signal_density, beliefs, _ = information(f, mu_sigma, mu_sigma, grid)
    return deviation_incentive(rule, regret_at_truth(rule, f, grid), signal_density, beliefs, grid)


def small_rule(cutoff):
    return payment_rule(GRID, np.where(GRID.mids >= cutoff, GRID.mids, 0.0))


def spike(node):
    return payment_rule(GRID, np.where(np.arange(GRID.bins) == node, GRID.mids, 0.0))


def landing_shades(xs, bound):
    """Shades ``v`` whose computed ``xs[i] - v`` is ``bound`` for a few ``i``
    past it, each with its neighbours one ulp either side; and how many landed exactly."""
    start = int(np.searchsorted(xs, bound))
    shades, landed = [], 0
    for i in sorted({start, start + 1, start + 7, (start + len(xs)) // 2, len(xs) - 1}):
        if i >= len(xs):
            continue
        v = float(xs[i] - bound)
        for _ in range(8):
            d = xs[i] - v
            if d == bound:
                landed += 1
                break
            v = math.nextafter(v, math.inf if d > bound else -math.inf)
        shades += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return shades, landed


# rules whose zero nodes bound the evaluation window in every way (on no
# side, on one, on both, everywhere), each with the support it must report
MIDS, INF = GRID.mids, math.inf
WINDOW_RULES = {
    "small": (small_rule(3.0), (MIDS[14], INF)),
    "zero": (ZERO_RULE, (INF, INF)),
    "identity": (IDENTITY_RULE, (-INF, INF)),
    "first_node": (spike(0), (-INF, MIDS[1])),
    "last_node": (spike(GRID.bins - 1), (MIDS[-2], INF)),
    "interior_spike": (spike(23), (MIDS[22], MIDS[24])),
    "large": (realize("large", 4.3, GRID).realized, (-INF, MIDS[22])),
}


class TestStrategy:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            Strategy()
        with pytest.raises(ValueError):
            Strategy(constant=1.0, table=Tabulated(GRID, np.zeros(50), "strategy"))

    def test_negative_shade_rejected(self):
        with pytest.raises(ValueError):
            Strategy.const(-0.5)
        with pytest.raises(ValueError):
            Strategy.functional(Tabulated(GRID, np.full(50, -1.0), "strategy"))

    def test_shade_at(self):
        assert np.allclose(Strategy.const(0.7).shade_at(GRID.mids), 0.7)
        tab = Tabulated(GRID, GRID.mids * 0.5, "strategy")
        assert Strategy.functional(tab).shade_at(5.1) == pytest.approx(2.55)


class TestShadeObjective:
    def test_zero_shade_equals_regret_at_truth(self):
        rule = small_rule(4.0)
        lhs = shade_objective(0.0, rule, F_TAB, GRID)
        xs = GRID.samples
        rhs = float(np.dot(np.asarray(rule(xs)) * F_TAB(xs), np.full(xs.shape, GRID.sample_width)))
        assert lhs == rhs  # identical quadrature path, exact equality

    def test_zero_rule_positive_shade_is_pure_loss(self):
        val = shade_objective(2.0, ZERO_RULE, F_TAB, GRID)
        assert val > 0.0
        # equals the expected profit lost below the shade
        oracle = float(np.dot(GRID.samples * (GRID.samples < 2.0), F_TAB(GRID.samples))) * GRID.sample_width
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_identity_rule_uniform_belief_analytic(self):
        # winners pay psi - s, losers forfeit psi:
        # J(s) = 0.1 * [(10-s)^2/2 + s^2/2]; J(0) = J(10) = 5, J(5) = 2.5
        for s, expected in ((0.0, 5.0), (10.0, 5.0), (5.0, 2.5)):
            got = shade_objective(s, IDENTITY_RULE, UNIFORM_TAB, GRID)
            assert got == pytest.approx(expected, abs=5e-3)

    def test_vectorized_matches_scalar(self):
        rule = small_rule(3.0)
        ss = np.array([0.0, 0.3, 1.7, 9.9])
        vec = shade_objective(ss, rule, F_TAB, GRID)
        for s, v in zip(ss, vec):
            assert v == pytest.approx(shade_objective(float(s), rule, F_TAB, GRID), rel=1e-12)

    def test_integrand_rows_match_scalar_shades(self):
        # a scalar shade gives one 1-D row, an array one row per shade;
        # below the shade the bidder forfeits x, above it retains r(x - s)
        rule = small_rule(3.0)
        ss = np.array([0.0, 0.3, 1.7, 9.9])
        rows = retained_integrand(ss, rule, GRID.mids)
        assert rows.shape == (4, GRID.bins)
        for s, row in zip(ss, rows):
            scalar = retained_integrand(float(s), rule, GRID.mids)
            assert scalar.shape == (GRID.bins,)
            assert np.array_equal(row, scalar)
            lost = GRID.mids < s
            assert np.array_equal(row[lost], GRID.mids[lost])
            assert np.array_equal(row[~lost], rule(GRID.mids[~lost] - s))

    @pytest.mark.parametrize("xs", [GRID.samples, GRID.mids], ids=["samples", "mids"])
    def test_scalar_tail_equals_masked_form_bit_for_bit(self, xs):
        # the rule is evaluated on the winning tail only, and there only
        # inside its support; for every window rule each row must equal the
        # whole-axis masked form bit for bit, for scalar and array shades
        # alike, also at shades on a sample point, on a node, between
        # samples, below, at and above the range
        between = GRID.samples[4000] + 0.25 * GRID.sample_width
        common = [0.0, GRID.samples[1234], GRID.mids[17], GRID.mids[22], between,
                  -1.0, GRID.upper, GRID.upper + 1.0]
        landed = 0
        for name, (rule, support) in WINDOW_RULES.items():
            # and at shades that put a computed xs[i] - s on a support bound,
            # or one ulp either side of such a shade
            edge = [landing_shades(xs, bound) for bound in support if math.isfinite(bound)]
            landed += sum(n for _, n in edge)
            shades = np.array(common + [v for found, _ in edge for v in found])
            rows = retained_integrand(shades, rule, xs)
            for s, row in zip(shades, rows):
                masked = np.where(xs < s, xs, np.asarray(rule(xs - s), dtype=float)).tobytes()
                assert retained_integrand(float(s), rule, xs).tobytes() == masked, (name, s)
                assert row.tobytes() == masked, (name, s)
        assert landed >= 10

    @pytest.mark.parametrize("name", list(WINDOW_RULES))
    def test_support_names_the_zero_nodes_around_the_nonzero_ones(self, name):
        rule, support = WINDOW_RULES[name]
        assert rule.support == support
        lo, hi = support
        # the rule is exactly zero at and beyond both bounds, nodes included
        probes = np.concatenate((GRID.mids, GRID.samples, GRID.edges, [-1.0, GRID.upper + 1.0]))
        outside = probes[(probes <= lo) | (probes >= hi)]
        assert np.all(rule(outside) == 0.0)

    def test_scan_matrix_is_built_in_place(self):
        # the scan matrix is the only large allocation: no per-row copies
        # stacked into a second matrix
        rule, shades = small_rule(3.0), _scan_shades(GRID)
        retained_integrand(shades, rule, GRID.samples)
        tracemalloc.start()
        try:
            scan = retained_integrand(shades, rule, GRID.samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * scan.nbytes


def scipy_bounded(func, lo, hi, xatol):
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun), int(res.nfev)


def exact(x, fx, nfev):
    return float(x).hex(), float(fx).hex(), nfev


class TestBrentPort:
    """The bidder's bounded Brent follows scipy's ``method="bounded"`` exactly."""

    @pytest.mark.parametrize("xatol", [_BRENT_XATOL, 1e-5])
    @pytest.mark.parametrize("func, lo, hi", [
        (lambda s: (s - 0.3) ** 2, 0.0, 1.0),
        (lambda s: (s + 1.0) ** 2, 0.0, 1.0),
        (lambda s: (s - 2.0) ** 2, 0.0, 1.0),
        (lambda s: 1.0, 0.1, 0.3),
        (lambda s: 0.0 if s < 0.37 else 1.0, 0.0, 1.0),
        (lambda s: 1.0 if s < 0.37 else 0.0, 0.0, 1.0),
        (lambda s: (s - 0.5) ** 2, 0.5, 0.5 + 4 * math.ulp(0.5)),
    ], ids=["interior", "at_lower", "at_upper", "constant", "step_up", "step_down", "ulps_wide"])
    def test_matches_scipy_bit_for_bit(self, func, lo, hi, xatol):
        assert exact(*_brent_bounded(func, lo, hi, xatol)) == exact(*scipy_bounded(func, lo, hi, xatol))

    def test_step_direction_matches_scipy(self):
        # scipy steps by np.sign(t) + (t == 0): a zero step or a midpoint at
        # the current point goes up
        for t in (-2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0):
            assert _sign(t) == np.sign(t) + (t == 0), t

    @pytest.mark.parametrize("belief", [F_TAB, posterior_table(F_PARETO, 2.0, GRID)[20]],
                             ids=["exante", "sigma_2_posterior"])
    def test_retained_regret_basins_match_scipy(self, belief):
        # every basin the best response refines, on the real objective
        rule = small_rule(4.0)
        xs = GRID.samples
        weights = np.asarray(belief(xs), dtype=float) * GRID.sample_width
        row = np.empty(xs.size)

        def objective(s):
            return float(_retained_row(row, s, rule, xs) @ weights)

        cands = _scan_shades(GRID)
        basins = [(float(cands[max(i - 1, 0)]), float(cands[min(i + 1, len(cands) - 1)]))
                  for i in _local_minima(retained_integrand(cands, rule, xs) @ weights)]
        assert basins
        for lo, hi in basins:
            ours = _brent_bounded(objective, lo, hi, _BRENT_XATOL)
            assert exact(*ours) == exact(*scipy_bounded(objective, lo, hi, _BRENT_XATOL)), (lo, hi)


class TestBestResponseConstant:
    def test_zero_rule_gives_exact_zero(self):
        assert best_response_constant(ZERO_RULE, F_TAB, GRID) == 0.0

    def test_identity_rule_uniform_belief(self):
        # analytic minimum of 0.1*[(10-s)^2 + s^2]/2 is s = 5
        s = best_response_constant(IDENTITY_RULE, UNIFORM_TAB, GRID)
        assert s == pytest.approx(5.0, abs=2e-2)

    def test_matches_dense_scan_oracle(self):
        # independent oracle: dense 20001-point scan of the same objective
        rule = small_rule(6.1)
        ss = np.linspace(0, 10, 20001)
        vals = shade_objective(ss, rule, F_TAB, GRID)
        oracle = ss[int(np.argmin(vals))]
        got = best_response_constant(rule, F_TAB, GRID)
        assert abs(got - oracle) < 1e-3
        assert shade_objective(got, rule, F_TAB, GRID) <= vals.min() + 1e-9

    def test_reproducible_bit_for_bit(self):
        rule = small_rule(5.0)
        runs = {best_response_constant(rule, F_TAB, GRID) for _ in range(3)}
        assert len(runs) == 1

    def test_tie_break_prefers_smallest_shade(self):
        # flat zero rule: every shade below the first node ties at the
        # no-loss objective; the scan must return exactly zero
        belief = tabulate_pdf(gpd(0, 1, 0.0, 0, 10), GRID)
        assert best_response_constant(ZERO_RULE, belief, GRID) == 0.0


class TestBestResponseFunctional:
    def test_zero_rule_all_zero(self):
        shades = _best_responses(ZERO_RULE, posterior_table(F_PARETO, 5.0, GRID), GRID)[0]
        assert np.all(shades == 0.0)

    def test_wide_blinding_collapses_to_ex_ante(self):
        rule = small_rule(6.1)
        shades = _best_responses(rule, posterior_table(F_PARETO, 1000.0, GRID), GRID)[0]
        s_exante = best_response_constant(rule, F_TAB, GRID)
        assert np.max(np.abs(shades - s_exante)) < GRID.width

    @pytest.mark.parametrize("rule", [ZERO_RULE, IDENTITY_RULE, small_rule(4.0)],
                             ids=["zero", "identity", "small"])
    @pytest.mark.parametrize("sigma", [2.0, 1000.0])
    def test_shared_scan_equals_per_belief_responses(self, rule, sigma):
        # one scan matrix shared by every signal gives exactly the responses
        # each posterior gets on its own
        posts = posterior_table(F_PARETO, sigma, GRID)
        alone = np.array([np.concatenate(_best_responses(rule, [belief], GRID)) for belief in posts])
        shades, values = _best_responses(rule, posts, GRID)
        assert np.all(shades == alone[:, 0])
        assert np.all(values == alone[:, 1])

    def test_sharp_blinding_bids_critical_value(self):
        shades = _best_responses(IDENTITY_RULE, posterior_table(F_PARETO, 0.05, GRID), GRID)[0]
        assert np.max(np.abs(shades - GRID.mids)) < GRID.width


class TestDeviationIncentive:
    def test_zero_rule_zero_incentive(self):
        assert blinded_regret_di(ZERO_RULE, F_PARETO, 5.0, GRID) == pytest.approx(0.0, abs=1e-9)

    def test_identity_rule_sharp_blinding_recovers_most_of_k_vcg(self):
        # independent oracle: both deviation-incentive terms by dense-grid
        # quadrature (exact kernels, no tabulation).  At sigma=0.05 the exact
        # retained regret is ~0.09 k_vcg, so the incentive approaches but does
        # not reach k_vcg; the package value (tents one bin wide) sits within
        # a tenth of k_vcg of the oracle.
        import math
        from scipy.special import ndtr
        from metaprice.center import k_vcg

        sigma = 0.05
        kv = k_vcg(F_PARETO, GRID)
        xs = np.linspace(0, 10, 4001)
        w = xs[1] - xs[0]
        fvals = pdf(F_PARETO, xs)

        def kernel(points, centers):
            z = (points[:, None] - centers[None, :]) / sigma
            mass = ndtr((10 - centers) / sigma) - ndtr((0 - centers) / sigma)
            return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi)) / mass[None, :]

        g_fine = kernel(xs, xs) @ (fvals * w)
        g_fine /= g_fine.sum() * w
        shades = np.linspace(0, 10, 2001)
        win_pay = np.where(xs[None, :] >= shades[:, None], xs[None, :] - shades[:, None], xs[None, :])
        retained = 0.0
        for i, signal in enumerate(xs[::40]):
            post = fvals * kernel(np.array([signal]), xs)[0]
            post /= post.sum() * w
            best = (win_pay @ post).min() * w
            retained += best * g_fine[::40][i]
        retained *= 40 * w
        truth = float(np.dot(xs * fvals, np.full(xs.shape, w)))
        oracle_di = truth - retained

        di = blinded_regret_di(IDENTITY_RULE, F_PARETO, sigma, GRID)
        assert di > 0.8 * kv
        assert abs(di - oracle_di) < 0.1 * kv

    @pytest.mark.parametrize("sigma", [2.0, 5.0, 10.0, 1000.0])
    def test_nonnegative(self, sigma):
        rule = small_rule(4.0)
        assert blinded_regret_di(rule, F_PARETO, sigma, GRID) >= -1e-6

    def test_weakly_decreasing_in_sigma(self):
        dis = [blinded_regret_di(IDENTITY_RULE, F_PARETO, s, GRID) for s in (2.0, 5.0, 10.0, 1000.0)]
        assert all(a >= b - 1e-6 for a, b in zip(dis, dis[1:]))


def test_regret_at_truth_matches_objective_at_zero():
    rule = small_rule(2.5)
    assert regret_at_truth(rule, F_PARETO, GRID) == pytest.approx(
        float(np.dot(np.asarray(rule(GRID.samples)) * pdf(F_PARETO, GRID.samples),
                     np.full(GRID.samples.shape, GRID.sample_width))), rel=1e-12)
