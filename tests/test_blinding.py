"""Blinding compounds and posterior beliefs against fine-grid oracles."""

import math
import re

import numpy as np
import pytest
from scipy.special import ndtr

from metaprice import blinding
from metaprice.blinding import _kernel_columns, _signal_kernel, blind, information
from metaprice.distributions import gpd, pdf, uniform
from metaprice.grid import Tabulated, integrate, make_grid

GRID = make_grid(0, 10, 50, 200)
F_PARETO = gpd(0, 1, 1.0, 0, 10)


def posteriors(f, sigma, grid=GRID):
    """The beliefs matrix of a blinded solve: one row of node values per signal node."""
    return information(f, sigma, sigma, grid)[1]


def posterior_at(f, sigma, signal):
    """The beliefs row whose bin midpoint is ``signal``."""
    b = int(np.argmin(np.abs(GRID.mids - signal)))
    assert GRID.mids[b] == pytest.approx(signal)
    return posteriors(f, sigma)[b]


def curve(row, xs):
    """A belief's node values interpolated at ``xs``, as the bidder weighs them."""
    return np.interp(xs, GRID.mids, row)


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
    assert GRID.mids[int(np.argmax(post))] == pytest.approx(signal)
    xs = GRID.samples
    vals = curve(post, xs)
    near = np.abs(xs - signal) <= GRID.width
    assert vals[near].sum() / vals.sum() >= 0.99


def test_posterior_wide_kernel_returns_prior():
    post = posterior_at(F_PARETO, 1000.0, 5.1)
    xs = GRID.samples
    l1 = np.sum(np.abs(curve(post, xs) - pdf(F_PARETO, xs))) * GRID.sample_width
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
    l1 = np.sum(np.abs(post - oracle_nodes)) * GRID.width
    assert l1 < 1e-3


def test_posterior_validates_inputs():
    with pytest.raises(ValueError):
        posteriors(F_PARETO, -1.0)


def test_posterior_zero_mass_rejected():
    # profits concentrated far from the signal with a narrow kernel
    spike = gpd(0, 1e-6, 0.0, 0, 10)  # essentially all mass near 0
    with pytest.raises(ValueError):  # the signal density has no mass either
        posterior_at(spike, 1e-6, 9.9)
    with pytest.raises(ValueError, match=r"posterior at signal \S+ has zero mass"):
        blinding._posteriors(spike, pdf(spike, GRID.samples), _signal_kernel(1e-6, GRID), 1e-6, GRID)


def per_signal_posteriors(f, sigma, grid):
    """The posteriors one signal at a time, as ``Tabulated`` densities: the
    reference the beliefs matrix must reproduce bit for bit."""
    f_samples, kernel = pdf(f, grid.samples), _signal_kernel(sigma, grid)
    f_nodes = pdf(f, grid.mids)
    k_nodes = _kernel_columns(grid.mids, grid.mids, sigma, grid.lower, grid.upper)
    out = []
    for b in range(grid.bins):
        total = float((f_samples * kernel[b]).sum() * grid.sample_width)
        out.append(Tabulated(grid, f_nodes * k_nodes[b] / total, "density"))
    return out


@pytest.mark.parametrize("bins", [30, 50])
@pytest.mark.parametrize("shape", [-0.1, 0.01, 1.0])
@pytest.mark.parametrize("sigma", [0.05, 2.0, 5.0, 1000.0])
def test_beliefs_matrix_equals_per_signal_posteriors_bit_for_bit(sigma, shape, bins):
    grid = make_grid(0, 10, bins, 200)
    f = gpd(0, 1, shape, 0, 10)
    beliefs = posteriors(f, sigma, grid)
    reference = per_signal_posteriors(f, sigma, grid)
    assert beliefs.shape == (bins, bins)
    assert np.array_equal(beliefs, np.array([post.values for post in reference]))
    # and the bidder's weights at the samples are the reference's curve, bit for bit
    for row, post in zip(beliefs[::7], reference[::7]):
        assert np.array_equal(np.interp(grid.samples, grid.mids, row), post(grid.samples))


@pytest.mark.parametrize("bad_pdf, message", [
    (lambda x: np.zeros_like(x), "posterior at signal 0.1 has zero mass"),
    (lambda x: np.full_like(x, np.nan), "posterior at signal 0.1 has zero mass"),
    (lambda x: np.where(x < 5.0, np.inf, 1.0), "posteriors must be finite and nonnegative"),
    (lambda x: np.where(x == GRID.mids[3], np.inf, 1.0), "posteriors must be finite and nonnegative"),
    (lambda x: np.where(x == GRID.mids[3], -1.0, 1.0), "posteriors must be finite and nonnegative"),
], ids=["zero", "nan", "infinite_mass", "infinite_node", "negative_node"])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_bad_posteriors_raise_by_name(monkeypatch, bad_pdf, message):
    # a belief is checked for what a density tabulation checks: a positive,
    # finite mass, and finite, nonnegative node values
    monkeypatch.setattr(blinding, "pdf", lambda f, x: bad_pdf(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError, match=re.escape(message)):
        blinding._posteriors(F_PARETO, bad_pdf(GRID.samples), _signal_kernel(2.0, GRID), 2.0, GRID)


def test_expected_posterior_variance_nondecreasing_in_sigma():
    xs = GRID.samples
    w = GRID.sample_width
    expected_var = []
    for sigma in (0.1, 1.0, 5.0, 100.0):
        g = blind(F_PARETO, sigma, GRID)
        gvals = g(GRID.mids)
        gmass = gvals / gvals.sum()
        var = 0.0
        for post, weight in zip(posteriors(F_PARETO, sigma), gmass):
            pv = curve(post, xs)
            z = pv.sum() * w
            m1 = (xs * pv).sum() * w / z
            m2 = (xs * xs * pv).sum() * w / z
            var += weight * (m2 - m1 * m1)
        expected_var.append(var)
    assert all(a <= b + 1e-6 for a, b in zip(expected_var, expected_var[1:]))
