"""Grid geometry, quadrature and interpolation."""

import numpy as np
import pytest

from metaprice.center import PaymentRule, payment_rule
from metaprice.grid import Tabulated, integrate, make_grid
from metaprice.distributions import gpd, pdf


def test_default_grid_geometry():
    grid = make_grid(0, 10, 50, 200)
    assert grid.width == pytest.approx(0.2)
    assert grid.mids[0] == pytest.approx(0.1)
    assert grid.edges[-1] == pytest.approx(10.0)
    assert len(grid.samples) == 50 * 200
    # whole-number floats give the same grid, with integer counts
    assert make_grid(0, 10, 50.0, 200.0) == grid
    assert type(make_grid(0, 10, 50.0, 200.0).bins) is int


def test_tiny_grid_geometry():
    grid = make_grid(0, 1, 2, 1)
    assert np.allclose(grid.edges, [0.0, 0.5, 1.0])
    assert np.allclose(grid.mids, [0.25, 0.75])


def test_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        make_grid(1.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        make_grid(2.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        make_grid(0.0, float("inf"), 10, 10)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1, 10)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 10, 0)
    # counts that are not whole numbers are rejected, not truncated or parsed
    for bins, subsamples in ((50.9, 200), (50, 200.5), (float("nan"), 200), (50, float("inf")), ("50", 200),
                             (True, 200), (50, True)):
        with pytest.raises(ValueError):
            make_grid(0.0, 10.0, bins, subsamples)


def test_integrate_constant_exact():
    grid = make_grid(0, 10, 50, 200)
    assert integrate(lambda x: np.ones_like(x), grid) == pytest.approx(10.0, abs=1e-12)


def test_integrate_linear():
    grid = make_grid(0, 10, 50, 200)
    assert integrate(lambda x: x, grid) == pytest.approx(50.0, abs=1e-6)


def test_integrate_truncated_gpd_mass():
    # oracle: the truncated pdf integrates to exactly one by construction
    # (closed-form cdf difference used in the renormalization)
    grid = make_grid(0, 10, 50, 200)
    f = gpd(0, 1, 1.0, 0, 10)
    assert integrate(lambda x: pdf(f, x), grid) == pytest.approx(1.0, abs=1e-6)


def test_interp_midpoint_of_segment():
    grid = make_grid(0, 0.4, 2, 10)
    tab = Tabulated(grid, np.array([0.0, 2.0]), "rule")
    assert tab(0.2) == pytest.approx(1.0)


def test_interp_exact_at_nodes():
    grid = make_grid(0, 10, 50, 10)
    values = np.sin(grid.mids)
    tab = Tabulated(grid, values, "strategy")
    assert np.allclose(tab(grid.mids), values)


def test_rule_clamps_outside_range():
    grid = make_grid(0, 10, 50, 10)
    tab = Tabulated(grid, grid.mids.copy(), "rule")
    assert tab(11.0) == pytest.approx(tab(grid.mids[-1]))
    assert tab(-3.0) == pytest.approx(tab(grid.mids[0]))


def test_density_zero_outside_range():
    grid = make_grid(0, 10, 50, 10)
    tab = Tabulated(grid, np.full(50, 0.1), "density")
    assert tab(10.5) == 0.0
    assert tab(-0.1) == 0.0
    assert tab(5.0) == pytest.approx(0.1)


def test_density_rejects_negative_values():
    grid = make_grid(0, 10, 50, 10)
    values = np.full(50, 0.1)
    values[3] = -0.5
    with pytest.raises(ValueError):
        Tabulated(grid, values, "density")


def test_quadrature_of_nonnegative_function_nonnegative():
    grid = make_grid(0, 10, 30, 17)
    rng = np.random.RandomState(7)
    for _ in range(20):
        vals = rng.uniform(0, 3, size=30)
        tab = Tabulated(grid, vals, "density")
        assert integrate(tab, grid) >= 0.0


def test_normalized_density_has_unit_mass():
    grid = make_grid(0, 10, 50, 200)
    rng = np.random.RandomState(11)
    tab = Tabulated(grid, rng.uniform(0.01, 2.0, size=50), "density").normalized()
    assert integrate(tab, grid) == pytest.approx(1.0, abs=1e-6)
    assert tab.mass() == pytest.approx(1.0, abs=1e-12)


def test_subsample_refinement_stability():
    # doubling the sub-sampling moves a smooth integral by < 1e-4 relative
    f = gpd(0, 1, 1.0, 0, 10)
    coarse = integrate(lambda x: x * pdf(f, x), make_grid(0, 10, 50, 200))
    fine = integrate(lambda x: x * pdf(f, x), make_grid(0, 10, 50, 400))
    assert abs(fine - coarse) / abs(fine) < 1e-4



@pytest.mark.parametrize("kind", ["density", "rule", "strategy"])
def test_bin_masses_are_the_direct_sum_computed_once_and_read_only(kind):
    grid = make_grid(0, 7, 30, 17)
    tab = Tabulated(grid, np.random.RandomState(3).uniform(0.0, 2.0, size=30), kind)
    direct = tab(grid.samples).reshape(grid.bins, grid.subsamples).sum(axis=1) * grid.sample_width
    masses = tab.bin_masses()
    assert masses.tobytes() == direct.tobytes()
    assert tab.bin_masses() is masses
    assert not masses.flags.writeable
    with pytest.raises(ValueError):
        masses[0] = 1.0


def test_values_are_a_read_only_copy():
    grid = make_grid(0, 10, 50, 10)
    values = np.full(50, 0.1)
    tab = Tabulated(grid, values, "density")
    with pytest.raises(ValueError):
        tab.values[3] = 0.5
    # the caller's array stays writable, and writing to it leaves the table as built
    values[3] = 0.5
    assert values.flags.writeable
    assert np.all(tab.values == 0.1)
    assert tab.mass() == pytest.approx(1.0)


def test_normalized_and_rules_on_read_only_values():
    grid = make_grid(0, 10, 50, 200)
    tab = Tabulated(grid, np.full(50, 0.3), "density")
    unit = tab.normalized()
    assert unit.mass() == pytest.approx(1.0, abs=1e-12)
    assert not unit.values.flags.writeable
    # a rule stores a -0.0 node as +0.0, read-only like any table
    vals = np.where(np.arange(50) % 2 == 0, -0.0, 0.5 * grid.mids)
    for rule in (PaymentRule(grid, vals), payment_rule(grid, vals)):
        assert not np.any(np.signbit(rule.values))
        assert not rule.values.flags.writeable
        assert np.array_equal(rule.values, vals)
    assert np.all(np.signbit(vals[::2]))


def test_tabulated_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind 'belief'"):
        Tabulated(make_grid(0, 10, 50, 10), np.zeros(50), "belief")
