"""Bidder objective, constant/functional best responses, deviation incentive."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from metaprice import bidder
from metaprice.bidder import (_BRENT_XATOL, KeptScan, RetainedRow, Strategy, _brent_bounded,
                              _local_minima, _pieces, _scan_shades, _sign, _support, best_response_constant,
                              deviation_incentive, regret_at_truth, retained_integrand, shade_objective)
from metaprice.blinding import information
from metaprice.center import PaymentRule, payment_rule
from metaprice.distributions import gpd, pdf, tabulate_pdf, uniform
from metaprice.equilibrium import EquilibriumConfig, Instance, find_equilibrium
from metaprice.grid import Tabulated, make_grid
from metaprice.rules import realize

GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)
F_TAB = tabulate_pdf(F_PARETO, GRID)
UNIFORM_TAB = tabulate_pdf(uniform(0, 10), GRID)

ZERO_RULE = payment_rule(GRID, np.zeros(50))
IDENTITY_RULE = payment_rule(GRID, GRID.mids)


def posteriors(f, sigma):
    """The beliefs of a blinded solve: one row of node values per signal node."""
    return information(f, sigma, sigma, GRID)[1]


def blinded_regret_di(rule, f, mu_sigma, grid):
    """Deviation incentive when the bidder answers each signal's posterior."""
    instance = Instance.build(f, EquilibriumConfig(mode="blinded", mu_sigma=mu_sigma, w_sigma=mu_sigma), grid)
    return deviation_incentive(rule, regret_at_truth(rule, f, grid), instance.signal_density, instance.bidder)


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
    def test_negative_shade_rejected(self):
        with pytest.raises(ValueError):
            Strategy.const(-0.5)
        with pytest.raises(ValueError):
            Strategy.functional(Tabulated(GRID, np.full(50, -1.0), "strategy"))

    def test_nan_and_out_of_range_shades_rejected(self):
        with pytest.raises(ValueError):
            Strategy.const(math.nan)
        with pytest.raises(ValueError, match="grid range"):
            Strategy.functional(Tabulated(GRID, np.full(50, GRID.upper + 0.1), "strategy"))

    def test_constructors_return_node_values(self):
        # a constant is one float for every node; a table is its node values
        shade = Strategy.const(np.float64(0.7))
        assert type(shade) is float and shade == 0.7
        tab = Tabulated(GRID, GRID.mids * 0.5, "strategy")
        assert Strategy.functional(tab).tobytes() == tab.values.tobytes() == tab(GRID.mids).tobytes()


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
            fill = RetainedRow(rule, xs)
            for s, row in zip(shades, rows):
                masked = np.where(xs < s, xs, np.asarray(rule(xs - s), dtype=float)).tobytes()
                assert retained_integrand(float(s), rule, xs).tobytes() == masked, (name, s)
                assert row.tobytes() == masked, (name, s)
                assert fill(float(s)).tobytes() == masked, (name, s)
        assert landed >= 10

    @pytest.mark.parametrize("name", list(WINDOW_RULES))
    def test_support_names_the_zero_nodes_around_the_nonzero_ones(self, name):
        rule, support = WINDOW_RULES[name]
        assert _support(rule) == support
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


def fresh_bytes(rule, xs, v):
    """A fresh fill of the retained regret at the shade ``v``, as bytes."""
    return np.where(xs < v, xs, np.interp(xs - v, rule.grid.mids, rule.values)).tobytes()


def row_bytes(rule, xs, v):
    """What a new evaluator fills in at the shade ``v``, as bytes."""
    return RetainedRow(rule, np.asarray(xs, dtype=float))(float(v)).tobytes()


def solve_rules(grid, rounds=3):
    """Each round's rule and each damped average of a blinded sigma-2 solve."""
    trace = find_equilibrium(F_PARETO, EquilibriumConfig(mode="blinded", mu_sigma=2.0, w_sigma=2.0,
                                                         max_rounds=rounds), grid)
    r_bar, rules = np.zeros(grid.bins), []
    for rnd in trace.rounds:
        r_bar = 0.8 * r_bar + 0.2 * rnd.rule.values
        rules += [rnd.rule, payment_rule(grid, r_bar)]
    assert np.array_equal(rules[-1].values, trace.rule.values)
    return rules


def random_rules(grid, rng, n=4):
    """Rules with every node in the envelope, and bang-bang rules of 0 or psi."""
    rules = []
    for _ in range(n):
        rules.append(payment_rule(grid, rng.uniform(0.0, 1.0, grid.bins) * grid.mids))
        rules.append(payment_rule(grid, np.where(rng.uniform(size=grid.bins) < 0.5, grid.mids, 0.0)))
    return rules


class TestRulePieces:
    """The evaluator, reading the rule through :func:`_pieces` and
    :func:`_support`, fills each row with the bits of a fresh ``np.interp`` fill."""

    def test_window_rules_match_interp_on_every_shade(self):
        shades = np.concatenate((_scan_shades(GRID), [-1.0, 0.123456789, 10.5]))
        for name, (rule, _) in WINDOW_RULES.items():
            for v in shades:
                assert row_bytes(rule, GRID.samples, v) == fresh_bytes(rule, GRID.samples, v), (name, v)

    def test_solve_rules_match_interp(self):
        # each round's rule of a 3-round sigma-2 solve and its damped average
        rules = solve_rules(GRID)
        assert len(rules) == 6
        shades = _scan_shades(GRID)
        for i, rule in enumerate(rules):
            rows = retained_integrand(shades, rule, GRID.samples)
            for v, row in zip(shades, rows):
                assert row.tobytes() == fresh_bytes(rule, GRID.samples, v), (i, v)
                assert row_bytes(rule, GRID.samples, v) == fresh_bytes(rule, GRID.samples, v), (i, v)

    @pytest.mark.parametrize("lower, upper, bins", [(0, 10, 30), (0, 10, 50), (0, 10, 200), (0, 7, 30),
                                                    (0, 7, 50)])
    def test_random_and_bang_bang_rules_match_interp(self, lower, upper, bins):
        grid = make_grid(lower, upper, bins, 200 if bins <= 50 else 50)
        rng = np.random.default_rng(bins + upper)
        xs = grid.samples
        shades = np.concatenate((_scan_shades(grid), rng.uniform(-1.0, upper + 1.0, 20)))
        for rule in random_rules(grid, rng):
            rows = retained_integrand(shades, rule, xs)
            fill = RetainedRow(rule, xs)
            for v, row in zip(shades, rows):
                assert row.tobytes() == fresh_bytes(rule, xs, v), v
                assert fill(float(v)).tobytes() == fresh_bytes(rule, xs, v), v

    @pytest.mark.parametrize("grid", [GRID, make_grid(0, 7, 30, 200)], ids=["0_10_50", "0_7_30"])
    def test_points_exactly_on_every_node(self, grid):
        # shades that put a computed xs[i] - v exactly on each node, and one
        # ulp either side: numpy's node branch returns the node value as is
        rules = random_rules(grid, np.random.default_rng(7), n=1)
        xs, landed = grid.samples, 0
        for j, node in enumerate(grid.mids):
            shades, n = landing_shades(xs, node)
            assert n > 0, j
            landed += n
            for v in shades:
                for rule in rules:
                    assert row_bytes(rule, xs, v) == fresh_bytes(rule, xs, v), (j, v)
        assert landed >= grid.bins

    def test_windows_of_one_point_and_none(self):
        rules = [rule for rule, _ in WINDOW_RULES.values()] + random_rules(GRID, np.random.default_rng(3))
        points = [-1.0, 0.0, GRID.mids[0], GRID.mids[0] + 0.01, GRID.mids[17], GRID.mids[-1], 9.99, 10.0, 11.0]
        for rule in rules:
            assert RetainedRow(rule, np.empty(0))(0.5).size == 0
            for x in points:
                for v in (-1.0, 0.0, x - 0.01, x, x + 0.01):
                    assert row_bytes(rule, [x], v) == fresh_bytes(rule, np.array([x]), v), (x, v)

    def test_negative_zero_nodes_are_stored_as_positive_zero(self):
        # np.interp returns a -0.0 node as -0.0 where it is hit exactly, the
        # kernel as 0 + -0.0 = +0.0; a rule stores no -0.0, so both agree
        vals = np.where(np.arange(GRID.bins) % 3 == 0, -0.0, 0.5 * GRID.mids)
        hits = GRID.mids[::3]
        assert np.all(np.signbit(np.interp(hits, GRID.mids, vals)))
        for rule in (payment_rule(GRID, vals), PaymentRule(GRID, vals)):
            assert not np.any(np.signbit(rule.values))
            assert np.array_equal(rule.values, vals)
            assert row_bytes(rule, hits, 0.0) == fresh_bytes(rule, hits, 0.0)
            assert row_bytes(rule, GRID.samples, 0.3) == fresh_bytes(rule, GRID.samples, 0.3)


def window_state(rule, xs, v):
    """``(i0, a, b)`` and the window's piece counts at the shade ``v``, found
    with ``np.searchsorted`` on the computed ``xs - v``."""
    lo, hi = _support(rule)
    i0 = int(np.searchsorted(xs, v))
    tail = xs[i0:] - v
    a = i0 + int(np.searchsorted(tail, lo, "right"))
    b = i0 + int(np.searchsorted(tail, hi, "left"))
    return (i0, a, b), np.diff(np.searchsorted(tail[a - i0:b - i0], _pieces(rule)[0])).tobytes()


def shade_walk(xs, support):
    """Shades that move one evaluator in every way the fills it keeps can meet."""
    dx, v0 = float(xs[1] - xs[0]), float(GRID.mids[17])
    walk = [v0, v0]  # the same shade twice
    walk += [v0 + k * dx / 8 for k in range(1, 8)]  # steps below the sample spacing
    walk += [v0 + dx, v0 + 2 * dx, v0 + 2.5 * dx]  # steps across a sample
    walk += [v0 + k * dx / 8 for k in range(7, 0, -1)]  # steps backwards
    # onto every cut and support bound, each run starting below where the last ended
    for bound in [*GRID.mids, *(b for b in support if math.isfinite(b))]:
        walk += landing_shades(xs, bound)[0]
    return walk + [GRID.upper, -1.0, GRID.upper + 1.0, 0.0, v0]  # long jumps, back and forth


def test_one_evaluator_through_shade_walks_matches_fresh_fills():
    # one evaluator keeps its prefix, zeros and spread piece arrays between
    # calls; after every step the row must equal a fresh fill bit for bit
    rules = [(name, rule) for name, (rule, _) in WINDOW_RULES.items()]
    rules += [(f"solve_{i}", rule) for i, rule in enumerate(solve_rules(GRID))]
    xs, seen = GRID.samples, set()
    for name, rule in rules:
        fill, last = RetainedRow(rule, xs), None
        for v in shade_walk(xs, _support(rule)):
            assert fill(v).tobytes() == fresh_bytes(rule, xs, v), (name, v)
            state = window_state(rule, xs, v)
            if last is not None:
                seen.add((state[0] == last[0], state[1] == last[1]))
            last = state
    # every combination of kept and moved bounds and piece counts was met
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def solve_rules_in_order(f, grid, **config):
    """Each round's rule of a solve, in the order the solve's kept scan met them."""
    return [rnd.rule for rnd in find_equilibrium(f, EquilibriumConfig(**config), grid).rounds]


def hand_built_rules(grid):
    """Rules in an order that switches bins at each end of the support and at
    the clamped end nodes, and that repeats a rule's bytes."""
    n, mids = grid.bins, grid.mids

    def on(*bins, first=0.0, last=0.0, neg_zero=False):
        values = np.full(n, -0.0 if neg_zero else 0.0)
        values[list(bins)] = mids[list(bins)]
        values[0] = first or values[0]
        values[-1] = last or values[-1]
        return payment_rule(grid, values)

    lo, hi = n // 5, 3 * n // 5
    band = range(lo, hi)
    return [
        ("zero", payment_rule(grid, np.zeros(n))),
        ("bang_bang", on(*band)),
        ("left_end_on", on(lo - 1, *band)),  # a bin turns on at each end of the support
        ("right_end_on", on(lo - 1, *band, hi)),
        ("left_end_off", on(*band, hi)),  # and off again
        ("right_end_off", on(*band)),
        ("first_node", on(*band, first=0.5 * mids[0])),  # the clamped piece below the first node
        ("first_node_moved", on(*band, first=mids[0])),
        ("last_node", on(*band, first=mids[0], last=0.25 * mids[-1])),  # and from the last node on
        ("last_node_moved", on(*band, last=0.75 * mids[-1])),
        ("fractional", payment_rule(grid, np.where(np.isin(np.arange(n), band), 0.4 * mids, 0.0))),
        ("bang_bang_again", on(*band)),
        ("negative_zero_nodes", on(*band, neg_zero=True)),  # stored as +0.0: the same bytes
        ("given_twice", on(*band, neg_zero=True)),
        ("zero_again", payment_rule(grid, np.zeros(n))),
    ]


GRIDS = {"0_10_50x200": GRID, "0_7_30x200": make_grid(0, 7, 30, 200), "0_10_50x400": make_grid(0, 10, 50, 400)}


class TestKeptScan:
    """A solve's kept scan matrix has the bytes of a fresh fill after every rule."""

    @staticmethod
    def walk(rules, grid):
        scan, last = KeptScan(np.empty((0, grid.bins)), grid), None
        for name, rule in rules:
            if last is not None and rule.values.tobytes() == last:
                # nothing moved: a read-only matrix raises if any entry is written
                scan.matrix.flags.writeable = False
            matrix = scan.update(rule)
            assert matrix is scan.matrix
            assert matrix.tobytes() == retained_integrand(scan.shades, rule, grid.samples).tobytes(), name
            matrix.flags.writeable, last = True, rule.values.tobytes()
        return scan

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_hand_built_rules(self, grid):
        rules = hand_built_rules(grid)
        assert rules[-2][1].values.tobytes() == rules[-3][1].values.tobytes() == rules[-4][1].values.tobytes()
        self.walk(rules, grid)

    @pytest.mark.parametrize("shape, rounds", [(1.0, 36), (0.01, 45)])
    def test_exante_solves(self, shape, rounds):
        rules = solve_rules_in_order(gpd(0, 1, shape, 0, 10), GRID, gamma=0.25)
        assert len(rules) == rounds
        self.walk(enumerate(rules), GRID)

    @pytest.mark.parametrize("sigma", [2.0, 1000.0])
    def test_blinded_solves(self, sigma):
        rules = solve_rules_in_order(F_PARETO, GRID, mode="blinded", mu_sigma=sigma, w_sigma=sigma, max_rounds=3)
        self.walk(enumerate(rules), GRID)

    @pytest.mark.parametrize("grid", list(GRIDS.values())[1:], ids=list(GRIDS)[1:])
    def test_exante_solves_on_other_grids(self, grid):
        f = gpd(0, 1, 1.0, grid.lower, grid.upper)
        self.walk(enumerate(solve_rules_in_order(f, grid, gamma=0.25)), grid)

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_every_piece_moves_on_two_consecutive_rules(self, grid, monkeypatch):
        # the first rule and each scaling after it move every piece, so the
        # matrix is refilled in place three times; the last rule moves two
        # pieces and is rewritten piece by piece, with no refill
        few = 0.75 * grid.mids
        few[grid.bins // 2] = 0.0
        rules = [(a, payment_rule(grid, a * grid.mids)) for a in (0.25, 0.5, 0.75)] + [("few", payment_rule(grid, few))]
        keys = [np.stack(_pieces(rule)[2:]).view(np.int64) for _, rule in rules]
        assert all((k0 != k1).any(axis=0).all() for k0, k1 in zip(keys[:2], keys[1:3]))
        assert (keys[2] != keys[3]).any(axis=0).sum() == 2
        filled, fill_rows = [], bidder._fill_rows
        monkeypatch.setattr(bidder, "_fill_rows", lambda out, *args: filled.append(out) or fill_rows(out, *args))
        for walked in (rules[:3], rules):
            filled.clear()
            scan = self.walk(walked, grid)
            assert sum(out is scan.matrix for out in filled) == 3

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_a_new_scan_holds_its_matrix_and_piece_starts(self, grid):
        # built whole: no update fills in the matrix or finds the piece starts later
        scan = KeptScan(np.empty((0, grid.bins)), grid)
        assert scan.matrix.shape == (scan.shades.size, grid.samples.size)
        assert scan._starts.shape == (grid.bins + 2, scan.shades.size)
        cuts = np.concatenate(([-math.inf], grid.mids, [math.inf]))
        for row, v in enumerate(scan.shades):
            # each piece's first sample in the row's winning tail, xs >= v
            starts = np.maximum(np.searchsorted(grid.samples, v), np.searchsorted(grid.samples - v, cuts))
            assert scan._starts[:, row].tolist() == starts.tolist()
        matrix, starts = scan.matrix, scan._starts
        scan.update(payment_rule(grid, 0.5 * grid.mids))
        scan.update(payment_rule(grid, np.where(np.arange(grid.bins) == 3, 0.25 * grid.mids, 0.5 * grid.mids)))
        assert scan.matrix is matrix and scan._starts is starts

    def test_weights_are_each_beliefs_quadrature_weights(self):
        posts = posteriors(F_PARETO, 2.0)
        scan = KeptScan(posts, GRID)
        assert len(scan.weights) == len(posts)
        for belief, weights in zip(posts, scan.weights):
            assert weights.tobytes() == (np.interp(GRID.samples, GRID.mids, belief) * GRID.sample_width).tobytes()


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

    def test_evaluation_cap_matches_scipy(self):
        # with xatol 0 the tolerance around a minimum at 0 shrinks to nothing, so
        # neither loop meets its stop test and both stop at 500 evaluations
        ours = _brent_bounded(lambda s: s * s, -1.0, 1.0, 0.0)
        assert ours[2] == 500
        assert exact(*ours) == exact(*scipy_bounded(lambda s: s * s, -1.0, 1.0, 0.0))

    def test_step_direction_matches_scipy(self):
        # scipy steps by np.sign(t) + (t == 0): a zero step or a midpoint at
        # the current point goes up
        for t in (-2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0):
            assert _sign(t) == np.sign(t) + (t == 0), t

    @pytest.mark.parametrize("belief", [F_TAB.values, posteriors(F_PARETO, 2.0)[20]],
                             ids=["exante", "sigma_2_posterior"])
    def test_retained_regret_basins_match_scipy(self, belief):
        # every basin the best response refines, on the real objective
        rule = small_rule(4.0)
        xs = GRID.samples
        weights = np.interp(xs, GRID.mids, belief) * GRID.sample_width
        fill = RetainedRow(rule, xs)

        def objective(s):
            return float(fill(s) @ weights)

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

    def test_scan_reaches_shades_below_the_window(self):
        # shades range over [0, upper]; below lower = 2 the bidder wins at every profit
        grid = make_grid(2, 10, 40, 100)
        ftab = tabulate_pdf(gpd(0, 1, 1.0, 2, 10), grid)
        assert _scan_shades(grid)[0] == 0.0
        large = realize("large", 2.5, grid).realized
        assert best_response_constant(large, ftab, grid) == 0.0
        assert shade_objective(0.0, large, ftab, grid) < shade_objective(grid.lower, large, ftab, grid)
        # threshold 1 charges 1 at every profit, so the objective is flat on
        # [0, 2] and the tie rule gives its smallest shade
        threshold = realize("threshold", 1.0, grid).realized
        assert shade_objective(0.0, threshold, ftab, grid) == shade_objective(grid.lower, threshold, ftab, grid)
        assert best_response_constant(threshold, ftab, grid) == 0.0


class TestBestResponseFunctional:
    def test_zero_rule_all_zero(self):
        shades = KeptScan(posteriors(F_PARETO, 5.0), GRID).respond(ZERO_RULE)[0]
        assert np.all(shades == 0.0)

    def test_wide_blinding_collapses_to_ex_ante(self):
        rule = small_rule(6.1)
        shades = KeptScan(posteriors(F_PARETO, 1000.0), GRID).respond(rule)[0]
        s_exante = best_response_constant(rule, F_TAB, GRID)
        assert np.max(np.abs(shades - s_exante)) < GRID.width

    @pytest.mark.parametrize("rule", [ZERO_RULE, IDENTITY_RULE, small_rule(4.0)],
                             ids=["zero", "identity", "small"])
    @pytest.mark.parametrize("sigma", [2.0, 1000.0])
    def test_shared_scan_equals_per_belief_responses(self, rule, sigma):
        # one scan matrix shared by every signal gives exactly the responses
        # each posterior gets on its own
        posts = posteriors(F_PARETO, sigma)
        alone = np.array([np.concatenate(KeptScan(belief[None, :], GRID).respond(rule)) for belief in posts])
        shades, values = KeptScan(posts, GRID).respond(rule)
        assert np.all(shades == alone[:, 0])
        assert np.all(values == alone[:, 1])

    def test_sharp_blinding_bids_critical_value(self):
        shades = KeptScan(posteriors(F_PARETO, 0.05), GRID).respond(IDENTITY_RULE)[0]
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
