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


def blind(f: DistributionSpec, sigma: float, grid: Grid) -> Tabulated:
    """Compound ``f`` with a truncated-normal kernel of width ``sigma``.

    Returns the signal density tabulated on the grid, renormalized to unit
    mass.  ``sigma`` must be strictly positive.
    """
    if not sigma > 0.0:
        raise ValueError("blinding stddev must be strictly positive")
    xs = grid.samples
    weights = pdf(f, xs) * grid.sample_width
    kernel = _kernel_columns(xs, grid.mids, sigma, grid.lower, grid.upper)
    values = kernel @ weights
    return Tabulated(grid, values, "density").normalized()


def posterior_table(f: DistributionSpec, sigma: float, grid: Grid) -> list[Tabulated]:
    """Posteriors for every bin midpoint treated as the signal.

    Each is proportional to ``f(x) * mu_x(signal)``; node values are
    normalized against a quadrature of the exact product so they agree with
    a fine-grid oracle, not with the coarser interpolated curve.
    """
    if not sigma > 0.0:
        raise ValueError("blinding stddev must be strictly positive")
    xs = grid.samples
    f_nodes = pdf(f, grid.mids)
    f_samples = pdf(f, xs)
    k_nodes = _kernel_columns(grid.mids, grid.mids, sigma, grid.lower, grid.upper)
    k_samples = _kernel_columns(xs, grid.mids, sigma, grid.lower, grid.upper)
    out = []
    for b in range(grid.bins):
        raw_nodes = f_nodes * k_nodes[b]
        total = float((f_samples * k_samples[b]).sum() * grid.sample_width)
        if total <= 1e-300:
            raise ValueError(f"posterior at signal {grid.mids[b]} has zero mass")
        out.append(Tabulated(grid, raw_nodes / total, "density"))
    return out


def information(f: DistributionSpec, mu_sigma: float | None, grid: Grid) -> tuple[Tabulated, list[Tabulated]]:
    """The bidder's signal density and beliefs: the tabulated ``f`` and ``[f]``
    ex ante (``mu_sigma`` None), else ``blind`` and ``posterior_table``."""
    if mu_sigma is None:
        ftab = tabulate_pdf(f, grid)
        return ftab, [ftab]
    return blind(f, mu_sigma, grid), posterior_table(f, mu_sigma, grid)
