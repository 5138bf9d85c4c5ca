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

from .distributions import DistributionSpec, pdf, tabulate_pdf
from .grid import Grid, Tabulated

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _kernel_columns(centers: np.ndarray, points: np.ndarray, sigma: float, lo: float, hi: float,
                    name: str = "sigma") -> np.ndarray:
    """Matrix ``K[i, j]``: truncated Normal(centers[j], sigma) density at points[i].

    Each column is renormalized to the window ``[lo, hi]`` so edge-centered
    kernels are not mass-deficient; a width so wide that a column's window
    mass rounds to zero is refused, by its ``name``.
    """
    from scipy.special import ndtr  # imported here so that importing the package loads no scipy

    mass = ndtr((hi - centers) / sigma) - ndtr((lo - centers) / sigma)
    if not np.all(mass > 0.0):
        raise ValueError(f"blinding width {name} = {sigma:g} puts no kernel mass on [{lo:g}, {hi:g}]")
    z = (points[:, None] - centers[None, :]) / sigma
    return np.exp(-0.5 * z * z) / (sigma * _SQRT2PI) / mass[None, :]


def _signal_masses(f_samples: np.ndarray, sigma: float, grid: Grid, name: str = "sigma") -> np.ndarray:
    """Unnormalized signal density at the nodes, ``sum_j f(samples[j]) K[i, j] dx``, where
    ``K[i, j]`` is the density of signal ``mids[i]`` at true profit ``samples[j]``; the
    same sums are the posteriors' normalizers."""
    if not sigma > 0.0:
        raise ValueError("blinding stddev must be strictly positive")
    kernel = _kernel_columns(grid.samples, grid.mids, sigma, grid.lower, grid.upper, name)
    return (f_samples * kernel).sum(axis=1) * grid.sample_width


def _posteriors(f: DistributionSpec, totals: np.ndarray, sigma: float, grid: Grid,
                name: str = "sigma") -> np.ndarray:
    """Beliefs ``(bins, bins)``: row ``b`` holds the node values of ``f(x) * mu_x(mids[b])``
    over ``totals[b]``, its quadrature on the samples, so a row agrees with a fine-grid oracle."""
    k_nodes = _kernel_columns(grid.mids, grid.mids, sigma, grid.lower, grid.upper, name)
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
    return Tabulated(grid, _signal_masses(pdf(f, grid.samples), sigma, grid), "density").normalized()


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
    totals = _signal_masses(f_samples, mu_sigma, grid, "mu_sigma")
    signal_density = Tabulated(grid, totals, "density").normalized()
    beliefs = _posteriors(f, totals, mu_sigma, grid, "mu_sigma")
    if w_sigma == mu_sigma:
        return signal_density, beliefs, signal_density
    constraint_masses = _signal_masses(f_samples, w_sigma, grid, "w_sigma")
    return signal_density, beliefs, Tabulated(grid, constraint_masses, "density").normalized()
