"""Blinding compounds and posterior beliefs against fine-grid oracles."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from metaprice.blinding import blind, posterior_table
from metaprice.distributions import gpd, pdf, uniform
from metaprice.grid import integrate, make_grid

GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)


def posterior_at(f, sigma, signal):
    """The ``posterior_table`` row whose bin midpoint is ``signal``."""
    b = int(np.argmin(np.abs(GRID.mids - signal)))
    assert GRID.mids[b] == pytest.approx(signal)
    return posterior_table(f, sigma, GRID)[b]


def truncnorm_pdf(points, center, sigma, lo=0.0, hi=10.0):
    z = (points - center) / sigma
    mass = ndtr((hi - center) / sigma) - ndtr((lo - center) / sigma)
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi)) / mass


def test_blind_requires_positive_sigma():
    with pytest.raises(ValueError):
        blind(F_PARETO, 0.0, GRID)
    with pytest.raises(ValueError):
        blind(F_PARETO, -1.0, GRID)


def test_blind_preserves_unit_mass_and_nonnegativity():
    for sigma in (0.1, 1.0, 2.0, 5.0, 100.0):
        g = blind(F_PARETO, sigma, GRID)
        assert np.all(g.values >= 0.0)
        assert integrate(g, GRID) == pytest.approx(1.0, abs=1e-6)


def test_blind_delta_limit_returns_f():
    g = blind(F_PARETO, 1e-4, GRID)
    l1 = np.sum(np.abs(g(GRID.samples) - pdf(F_PARETO, GRID.samples))) * GRID.sample_width
    assert l1 < 0.02


def test_blind_wide_kernel_limit_is_uniform():
    g = blind(F_PARETO, 1000.0, GRID)
    assert np.max(np.abs(g.values - 0.1)) < 0.01


def test_blind_uniform_fixed_point_interior():
    # double-integration oracle: compound (1/10) \int mu_x(psi) dx on a fine
    # x-grid, renormalized to unit mass exactly as blind() is; away from the
    # edges the result stays the uniform density
    sigma = 1.0
    g = blind(uniform(0, 10), sigma, GRID)
    xs = np.linspace(0, 10, 20001)
    w = xs[1] - xs[0]
    compound = np.array([np.sum(0.1 * truncnorm_pdf(node, xs, sigma)) * w for node in GRID.mids])
    oracle = compound / (compound.sum() * GRID.width)
    interior = (GRID.mids > 4 * sigma) & (GRID.mids < 10 - 4 * sigma)
    assert np.max(np.abs(oracle[interior] - 0.1)) < 1e-3  # oracle sanity
    assert np.max(np.abs(g.values[interior] - oracle[interior])) < 1e-4
    assert np.max(np.abs(g.values[interior] - 0.1)) < 1e-3


def test_blind_l1_distance_monotone_in_sigma():
    xs = GRID.samples
    fvals = pdf(F_PARETO, xs)
    dists = []
    for sigma in (0.1, 1.0, 5.0, 100.0):
        g = blind(F_PARETO, sigma, GRID)
        dists.append(np.sum(np.abs(g(xs) - fvals)) * GRID.sample_width)
    assert all(a <= b + 1e-9 for a, b in zip(dists, dists[1:]))


def test_posterior_concentrates_as_sigma_vanishes():
    # a near-delta kernel concentrates the belief at the signal: at least 99%
    # of the mass within one bin width of it (the linear tabulation of a
    # node-centered spike is a tent spanning exactly that window)
    signal = 4.9
    post = posterior_at(F_PARETO, 0.05, signal)
    assert GRID.mids[int(np.argmax(post.values))] == pytest.approx(signal)
    xs = GRID.samples
    vals = post(xs)
    near = np.abs(xs - signal) <= GRID.width
    assert vals[near].sum() / vals.sum() >= 0.99


def test_posterior_wide_kernel_returns_prior():
    post = posterior_at(F_PARETO, 1000.0, 5.1)
    xs = GRID.samples
    l1 = np.sum(np.abs(post(xs) - pdf(F_PARETO, xs))) * GRID.sample_width
    assert l1 < 0.02


def test_posterior_matches_fine_grid_product_oracle():
    # brute-force normalized product on a 5000-point grid; the posterior's
    # node values are compared where they are defined (between nodes the
    # piecewise-linear tabulation carries its fixed O(width^2) chord error)
    sigma, signal = 5.0, 5.1
    post = posterior_at(F_PARETO, sigma, signal)
    xs = np.linspace(0, 10, 5000)
    w = xs[1] - xs[0]
    raw = pdf(F_PARETO, xs) * truncnorm_pdf(signal, xs, sigma)
    oracle_curve = raw / np.trapezoid(raw, dx=w)
    oracle_nodes = np.interp(GRID.mids, xs, oracle_curve)
    l1 = np.sum(np.abs(post.values - oracle_nodes)) * GRID.width
    assert l1 < 1e-3


def test_posterior_validates_inputs():
    with pytest.raises(ValueError):
        posterior_table(F_PARETO, -1.0, GRID)


def test_posterior_zero_mass_rejected():
    # profits concentrated far from the signal with a narrow kernel
    spike = gpd(0, 1e-6, 0.0, 0, 10)  # essentially all mass near 0
    with pytest.raises(ValueError):
        posterior_at(spike, 1e-6, 9.9)


def test_expected_posterior_variance_nondecreasing_in_sigma():
    xs = GRID.samples
    w = GRID.sample_width
    expected_var = []
    for sigma in (0.1, 1.0, 5.0, 100.0):
        g = blind(F_PARETO, sigma, GRID)
        gvals = g(GRID.mids)
        gmass = gvals / gvals.sum()
        var = 0.0
        for post, weight in zip(posterior_table(F_PARETO, sigma, GRID), gmass):
            pv = post(xs)
            z = pv.sum() * w
            m1 = (xs * pv).sum() * w / z
            m2 = (xs * xs * pv).sum() * w / z
            var += weight * (m2 - m1 * m1)
        expected_var.append(var)
    assert all(a <= b + 1e-6 for a, b in zip(expected_var, expected_var[1:]))
