"""Blinding kernels: compounding the profit distribution with noisy beliefs.

A participant does not observe its potential profit exactly; it sees a
signal drawn from a truncated normal centered at the true value.  Compounding
that kernel with the profit density ``f`` gives the signal density
``g(psi) = ∫ f(x) mu_x(psi) dx``; the same operation with the center's
kernel width produces ``h``.  Bayes inversion of the kernel at a fixed
signal yields the bidder's posterior over its true profit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .distributions import DistributionSpec, pdf, tabulate_pdf
from .grid import Grid, Tabulated

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _kernel_columns(centers: np.ndarray, points: np.ndarray, sigma: float, lo: float, hi: float) -> np.ndarray:
    """Matrix ``K[i, j]``: truncated Normal(centers[j], sigma) density at points[i].

    Each column is renormalized to the window ``[lo, hi]`` so edge-centered
    kernels are not mass-deficient.
    """
    z = (points[:, None] - centers[None, :]) / sigma
    mass = ndtr((hi - centers) / sigma) - ndtr((lo - centers) / sigma)
    return np.exp(-0.5 * z * z) / (sigma * _SQRT2PI) / mass[None, :]


def _signal_kernel(sigma: float, grid: Grid) -> np.ndarray:
    """Nodes-by-samples kernel ``K[i, j]``, shape ``(bins, bins * subsamples)``:
    the density of signal ``mids[i]`` at true profit ``samples[j]``."""
    if not sigma > 0.0:
        raise ValueError("blinding stddev must be strictly positive")
    return _kernel_columns(grid.samples, grid.mids, sigma, grid.lower, grid.upper)


def _signal_density(f_samples: np.ndarray, kernel: np.ndarray, grid: Grid) -> Tabulated:
    values = kernel @ (f_samples * grid.sample_width)
    return Tabulated(grid, values, "density").normalized()


def _posteriors(f: DistributionSpec, f_samples: np.ndarray, kernel: np.ndarray, sigma: float,
                grid: Grid) -> np.ndarray:
    """Beliefs ``(bins, bins)``: row ``b`` holds the node values of ``f(x) * mu_x(mids[b])``
    over its quadrature on the samples, so a row agrees with a fine-grid oracle."""
    k_nodes = _kernel_columns(grid.mids, grid.mids, sigma, grid.lower, grid.upper)
    totals = (f_samples * kernel).sum(axis=1) * grid.sample_width
    empty = ~(totals > 1e-300)  # NaN included
    if empty.any():
        raise ValueError(f"posterior at signal {grid.mids[empty.argmax()]} has zero mass")
    beliefs = pdf(f, grid.mids) * k_nodes / totals[:, None]
    if not np.all(np.isfinite(beliefs) & (beliefs >= 0.0)):
        raise ValueError("posteriors must be finite and nonnegative")
    return beliefs


def blind(f: DistributionSpec, sigma: float, grid: Grid) -> Tabulated:
    """Compound ``f`` with a truncated-normal kernel of width ``sigma``.

    Returns the signal density tabulated on the grid, renormalized to unit
    mass.  ``sigma`` must be strictly positive.
    """
    return _signal_density(pdf(f, grid.samples), _signal_kernel(sigma, grid), grid)


def information(f: DistributionSpec, mu_sigma: float | None, w_sigma: float | None,
                grid: Grid) -> tuple[Tabulated, np.ndarray, Tabulated]:
    """The bidder's signal density, its beliefs as rows of node values, and the
    center's budget density: ex ante (``mu_sigma`` None) the tabulated ``f``, its
    node values as one row, and ``f`` again; else ``blind(f, mu_sigma)``, one posterior
    row per signal node and ``blind(f, w_sigma)``, built from one kernel per distinct width."""
    if mu_sigma is None:
        ftab = tabulate_pdf(f, grid)
        return ftab, ftab.values[None, :], ftab
    f_samples = pdf(f, grid.samples)
    kernel = _signal_kernel(mu_sigma, grid)
    signal_density = _signal_density(f_samples, kernel, grid)
    beliefs = _posteriors(f, f_samples, kernel, mu_sigma, grid)
    if w_sigma == mu_sigma:
        return signal_density, beliefs, signal_density
    del kernel  # at most one kernel alive at a time
    return signal_density, beliefs, _signal_density(f_samples, _signal_kernel(w_sigma, grid), grid)
