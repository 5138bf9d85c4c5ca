"""Potential-profit distributions.

Parametric families (generalized Pareto, Burr XII, truncated normal,
uniform) plus histogram densities fitted from samples.  Every spec is
truncated to a window ``[lo, hi]`` and renormalized there, so the truncated
pdf integrates to one over the window.

The generalized Pareto density with location ``m``, scale ``sigma`` and
shape ``xi`` is ``(1/sigma) (1 + xi (x-m)/sigma)^(-1/xi - 1)``; at
``|xi| < 1e-8`` it switches to the exponential limit
``(1/sigma) exp(-(x-m)/sigma)``.  For ``xi < 0`` the support ends at
``m - sigma/xi``.  Burr XII with shapes ``c, k`` and scale ``lam`` has
density ``(c k / lam) (x/lam)^(c-1) (1 + (x/lam)^c)^(-k-1)`` on ``x > 0``;
``BurrXII(1, k, lam)`` coincides with a generalized Pareto.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import Grid, Tabulated, integrate

_XI_EXPONENTIAL = 1e-8
_SQRT2PI = math.sqrt(2.0 * math.pi)
# float()'s grammar in ASCII, without digit-group underscores; nan and inf match, to be refused as not finite
_REAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|nan|inf|infinity)",
                   re.ASCII | re.IGNORECASE)


def _finite(family: str, **params: float) -> None:
    """Reject the first of a family's ``params`` that is NaN or infinite, by name."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{family} {name} must be finite, got {value}")


@dataclass(frozen=True)
class GeneralizedPareto:
    location: float = 0.0
    scale: float = 1.0
    shape: float = 0.0

    def __post_init__(self) -> None:
        _finite("generalized Pareto", location=self.location, scale=self.scale, shape=self.shape)
        if not self.scale > 0.0:
            raise ValueError("generalized Pareto scale must be positive")

    def raw_pdf(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.location) / self.scale
        if abs(self.shape) < _XI_EXPONENTIAL:
            with np.errstate(over="ignore"):
                out = np.exp(-z) / self.scale
            return np.where(z >= 0.0, out, 0.0)
        t = 1.0 + self.shape * z
        ok = (z >= 0.0) & (t > 0.0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.power(np.where(ok, t, 1.0), -1.0 / self.shape - 1.0) / self.scale
        return np.where(ok, out, 0.0)

    def raw_cdf(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.location) / self.scale
        if abs(self.shape) < _XI_EXPONENTIAL:
            with np.errstate(over="ignore"):
                out = -np.expm1(-np.maximum(z, 0.0))
            return out
        # shape < 0: the support ends at z = -1/shape, where t clamps to 0 and the cdf to 1
        t = np.maximum(1.0 + self.shape * np.maximum(z, 0.0), 0.0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = 1.0 - np.power(t, -1.0 / self.shape)
        return np.where(z >= 0.0, out, 0.0)


@dataclass(frozen=True)
class BurrXII:
    shape_c: float
    shape_k: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        _finite("Burr XII", c=self.shape_c, k=self.shape_k, scale=self.scale)
        if not (self.shape_c > 0.0 and self.shape_k > 0.0):
            raise ValueError("Burr XII shape parameters must be positive")
        if not self.scale > 0.0:
            raise ValueError("Burr XII scale must be positive")

    def raw_pdf(self, x: np.ndarray) -> np.ndarray:
        c, k, lam = self.shape_c, self.shape_k, self.scale
        pos = x > 0.0
        z = np.where(pos, x, 1.0) / lam
        with np.errstate(over="ignore", invalid="ignore"):
            zc = np.power(z, c)
            out = (c * k / lam) * np.power(z, c - 1.0) * np.power(1.0 + zc, -k - 1.0)
        return np.where(pos, out, 0.0)

    def raw_cdf(self, x: np.ndarray) -> np.ndarray:
        c, k, lam = self.shape_c, self.shape_k, self.scale
        pos = x > 0.0
        z = np.where(pos, x, 1.0) / lam
        with np.errstate(over="ignore"):
            out = 1.0 - np.power(1.0 + np.power(z, c), -k)
        return np.where(pos, out, 0.0)


@dataclass(frozen=True)
class Normal:
    mean: float
    stddev: float

    def __post_init__(self) -> None:
        _finite("normal", mean=self.mean, stddev=self.stddev)
        if not self.stddev > 0.0:
            raise ValueError("normal stddev must be positive")

    def raw_pdf(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.mean) / self.stddev
        return np.exp(-0.5 * z * z) / (self.stddev * _SQRT2PI)

    def raw_cdf(self, x: np.ndarray) -> np.ndarray:
        from scipy.special import ndtr  # imported here so that importing the package loads no scipy

        return ndtr((x - self.mean) / self.stddev)


@dataclass(frozen=True)
class Flat:
    """Improper unit-density family; truncation turns it into Uniform[lo, hi]."""

    def raw_pdf(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(x)

    def raw_cdf(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Histogram:
    """Piecewise-constant density on explicit bin edges."""

    edges: np.ndarray
    densities: np.ndarray
    dropped: int = 0

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "densities", dens)
        if edges.ndim != 1 or len(edges) != len(dens) + 1:
            raise ValueError("histogram needs len(edges) == len(densities) + 1")
        if np.any(dens < 0.0):
            raise ValueError("histogram densities must be nonnegative")

    @cached_property
    def _cum(self) -> np.ndarray:
        steps = self.densities * np.diff(self.edges)
        return np.concatenate(([0.0], np.cumsum(steps)))

    def raw_pdf(self, x: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.densities) - 1)
        inside = (x >= self.edges[0]) & (x <= self.edges[-1])
        return np.where(inside, self.densities[idx], 0.0)

    def raw_cdf(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.edges, self._cum)


@dataclass(frozen=True)
class DistributionSpec:
    """A family truncated and renormalized to ``[lo, hi]``."""

    family: GeneralizedPareto | BurrXII | Normal | Flat | Histogram
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"bad truncation window [{self.lo}, {self.hi}]")
        if not self._norm > 1e-300:  # also a NaN mass
            raise ValueError("truncation window carries no probability mass")

    @cached_property
    def _norm(self) -> float:
        lo_hi = np.array([self.lo, self.hi])
        c = self.family.raw_cdf(lo_hi)
        return float(c[1] - c[0])

    @cached_property
    def _cdf_lo(self) -> np.float64:
        """The family's cdf at ``lo``, which :func:`cdf` subtracts."""
        return self.family.raw_cdf(np.asarray([self.lo]))[0]


def gpd(location: float, scale: float, shape: float, lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(GeneralizedPareto(location, scale, shape), float(lo), float(hi))


def burr_xii(shape_c: float, shape_k: float, lo: float, hi: float, scale: float = 1.0) -> DistributionSpec:
    return DistributionSpec(BurrXII(shape_c, shape_k, scale), float(lo), float(hi))


def truncated_normal(mean: float, stddev: float, lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(Normal(mean, stddev), float(lo), float(hi))


def uniform(lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(Flat(), float(lo), float(hi))


def pdf(spec: DistributionSpec, x) -> float | np.ndarray:
    """Truncated-renormalized density; zero outside the window and support."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    inside = (arr >= spec.lo) & (arr <= spec.hi)
    out = np.where(inside, spec.family.raw_pdf(arr) / spec._norm, 0.0)
    return float(out[0]) if scalar else out


def cdf(spec: DistributionSpec, x) -> float | np.ndarray:
    """Truncated cdf: 0 at ``lo``, 1 at ``hi``, monotone in between."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    clipped = np.clip(arr, spec.lo, spec.hi)
    out = (spec.family.raw_cdf(clipped) - spec._cdf_lo) / spec._norm
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def mean(spec: DistributionSpec, grid: Grid) -> float:
    """Quadrature of ``psi * pdf(psi)``.

    Normalized by the quadrature of the pdf itself so that spike-like
    densities (stddev below the sample spacing) still return the spike
    location rather than losing mass.
    """
    num = integrate(lambda x: x * pdf(spec, x), grid)
    den = integrate(lambda x: pdf(spec, x), grid)
    if den <= 0.0:
        raise ValueError("distribution has no mass on the grid")
    return num / den


def fit_empirical(samples, grid: Grid) -> DistributionSpec:
    """Histogram density on the grid bins, renormalized.

    Samples outside the grid range are dropped; the count is recorded on the
    resulting family as ``dropped``.  Raises if no sample lands inside.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    inside = arr[(arr >= grid.lower) & (arr <= grid.upper)]
    dropped = int(arr.size - inside.size)
    if inside.size == 0:
        raise ValueError("all samples fall outside the grid range")
    counts, _ = np.histogram(inside, bins=grid.edges)
    densities = counts / (inside.size * grid.width)
    family = Histogram(grid.edges.copy(), densities, dropped=dropped)
    return DistributionSpec(family, grid.lower, grid.upper)


def read_samples(path: str | Path) -> list[float]:
    """Plain-text sample file, one finite real per line in plain ASCII decimal
    notation; blank lines ignored."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            if not _REAL.fullmatch(text):
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}")
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
            out.append(value)
    return out


def tabulate_pdf(spec: DistributionSpec, grid: Grid) -> Tabulated:
    """Tabulate the pdf at the grid nodes, renormalized to unit mass."""
    vals = pdf(spec, grid.mids)
    tab = Tabulated(grid, np.asarray(vals, dtype=float), "density")
    return tab.normalized()
