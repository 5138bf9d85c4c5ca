"""Uniform discretization of the potential-profit axis.

Everything downstream (densities, payment rules, strategies) lives on one
shared grid: ``bins`` equal-width bins on ``[lower, upper]`` with values
tabulated at bin midpoints, and ``subsamples`` quadrature sub-intervals per
bin.  Integration is a deterministic midpoint rule over the fixed
``bins * subsamples`` sample points, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

Kind = Literal["density", "rule", "strategy"]

_KINDS = ("density", "rule", "strategy")


def whole_number(name: str, value) -> int:
    """``value`` as an ``int``; a float passes only if it is a whole number, a bool never."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """Equal-width binning of ``[lower, upper]``.

    Derived geometry: ``edges`` (bins+1 bin boundaries), ``mids`` (bin
    midpoints, the tabulation nodes) and ``samples`` (midpoints of the
    quadrature sub-intervals).
    """

    lower: float
    upper: float
    bins: int
    subsamples: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("grid bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"grid bounds inverted or empty: [{self.lower}, {self.upper}]")
        for name in ("bins", "subsamples"):
            object.__setattr__(self, name, whole_number(f"grid {name}", getattr(self, name)))
        if self.bins < 2:
            raise ValueError("grid needs at least 2 bins")
        if self.subsamples < 1:
            raise ValueError("grid needs at least 1 subsample per bin")

    @cached_property
    def width(self) -> float:
        return (self.upper - self.lower) / self.bins

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.bins + 1)

    @cached_property
    def mids(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @cached_property
    def sample_width(self) -> float:
        return (self.upper - self.lower) / (self.bins * self.subsamples)

    @cached_property
    def sample_edges(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.bins * self.subsamples + 1)

    @cached_property
    def samples(self) -> np.ndarray:
        return 0.5 * (self.sample_edges[:-1] + self.sample_edges[1:])


def make_grid(lower: float, upper: float, bins: int, subsamples: int) -> Grid:
    """Build a grid; rejects non-finite or inverted bounds and counts that are not whole numbers."""
    return Grid(float(lower), float(upper), bins, subsamples)


def integrate(fn: Callable, grid: Grid) -> float:
    """Midpoint-rule quadrature of a vectorized ``fn`` over the whole grid range."""
    return float(np.dot(np.asarray(fn(grid.samples), dtype=float), np.diff(grid.sample_edges)))


@dataclass(frozen=True)
class Tabulated:
    """A function tabulated at the grid's bin midpoints.

    Evaluation interpolates linearly between nodes.  Outside the grid range
    rules and strategies clamp to the nearest node value while densities
    evaluate to zero; between the range boundary and the extreme node the
    nearest node value is used for every kind.
    """

    grid: Grid
    values: np.ndarray
    kind: Kind

    def __post_init__(self) -> None:
        # a read-only copy: the caller keeps its array, and what is cached from the values stays right
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.bins,):
            raise ValueError(f"expected {self.grid.bins} node values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tabulated values must be finite")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "density" and np.any(vals < 0.0):
            raise ValueError("densities must be nonnegative")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        y = np.interp(arr, self.grid.mids, self.values)
        if self.kind == "density":
            y = np.where((arr < self.grid.lower) | (arr > self.grid.upper), 0.0, y)
        return float(y) if arr.ndim == 0 else y

    def bin_masses(self) -> np.ndarray:
        """Per-bin integrals of the interpolated curve (length ``bins``), read-only."""
        return self._bin_masses

    @cached_property
    def _bin_masses(self) -> np.ndarray:
        grid = self.grid
        masses = self(grid.samples).reshape(grid.bins, grid.subsamples).sum(axis=1) * grid.sample_width
        masses.flags.writeable = False
        return masses

    def mass(self) -> float:
        return float(self.bin_masses().sum())

    def normalized(self) -> "Tabulated":
        """Rescale so the interpolated curve integrates to one."""
        total = self.mass()
        if total <= 0.0:
            raise ValueError("cannot normalize a zero-mass tabulation")
        return Tabulated(self.grid, self.values / total, self.kind)
