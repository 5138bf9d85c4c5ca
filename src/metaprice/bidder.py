"""Bidder best responses.

The bidder shades its bid by ``s``: with true potential profit ``psi`` it
wins whenever ``psi >= s``, retains regret ``r(psi - s)`` (the payment above
the critical value), and forfeits the full ``psi`` when it loses.  The
expected retained regret is minimized over ``s in [0, U]`` by a midpoint
grid scan followed by bounded Brent refinement of every local basin, with
ties broken toward the smallest shade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .distributions import DistributionSpec, pdf
from .grid import Grid, Tabulated

# Relative tolerance for declaring shade minima tied.  The shade objective is
# flat near its optimum (many near-equal minima), so the reported shade is the
# smallest one within this band of the best value; anchoring there keeps the
# result stable under quadrature refinement.
TIE_RTOL = 1e-4
_BRENT_XATOL = 1e-10


@dataclass(frozen=True)
class Strategy:
    """A shade: either a single constant or a tabulated function of psi."""

    constant: float | None = None
    table: Tabulated | None = None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.table is None):
            raise ValueError("strategy needs exactly one of constant or table")
        if self.constant is not None and not self.constant >= 0.0:
            raise ValueError("constant shade must be >= 0")
        if self.table is not None:
            if self.table.kind != "strategy":
                raise ValueError("functional strategy must use a 'strategy' tabulation")
            if np.any(self.table.values < 0.0):
                raise ValueError("shade values must be >= 0")
            if np.any(self.table.values > self.table.grid.upper):
                raise ValueError("shade values cannot exceed the grid range")

    @classmethod
    def const(cls, s: float) -> "Strategy":
        return cls(constant=float(s))

    @classmethod
    def functional(cls, table: Tabulated) -> "Strategy":
        return cls(table=table)

    def shade_at(self, psi) -> np.ndarray:
        arr = np.asarray(psi, dtype=float)
        if self.constant is not None:
            return np.full_like(arr, self.constant)
        return np.asarray(self.table(arr), dtype=float)


def retained_integrand(s, rule, xs: np.ndarray) -> np.ndarray:
    """Retained regret ``I[x < s] x + I[x >= s] r(x - s)`` at ``xs``, one row per shade.

    ``xs`` must be ascending, as ``grid.samples`` and ``grid.mids`` are.  The
    rule is interpolated only on the winning tail ``xs >= s`` and there only
    inside ``rule.support``; outside it the tail is zero-filled, which is the
    value interpolation between or past zero nodes returns.  All rows fill
    one preallocated matrix.
    """
    xs = np.asarray(xs, dtype=float)
    shades = np.asarray(s, dtype=float).reshape(-1)
    out = np.empty((shades.size, xs.size))
    lo, hi = rule.support
    for row, v in zip(out, shades):
        i0 = int(np.searchsorted(xs, v))
        # bound the window on the computed tail so the comparisons are exact
        tail = xs[i0:] - v
        a = int(np.searchsorted(tail, lo, "right"))
        b = int(np.searchsorted(tail, hi, "left"))
        row[:i0] = xs[:i0]
        row[i0:i0 + a] = 0.0
        row[i0 + a:i0 + b] = rule(tail[a:b])
        row[i0 + b:] = 0.0
    return out if np.ndim(s) > 0 else out[0]


def shade_objective(s, rule, belief: Tabulated, grid: Grid):
    """Expected retained regret of shading by ``s`` under ``belief``.

    Quadrature of :func:`retained_integrand` against the belief density.
    Accepts a scalar or an array of shades.
    """
    xs = grid.samples
    weights = np.asarray(belief(xs), dtype=float) * grid.sample_width
    out = retained_integrand(np.atleast_1d(np.asarray(s, dtype=float)), rule, xs) @ weights
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return float(out[0])
    return out


def _local_minima(values: np.ndarray) -> np.ndarray:
    left = np.concatenate(([np.inf], values[:-1]))
    right = np.concatenate((values[1:], [np.inf]))
    return np.flatnonzero((values <= left) & (values <= right))


def _scan_shades(grid: Grid) -> np.ndarray:
    """Shades of the grid scan: both range ends and every bin midpoint."""
    return np.unique(np.concatenate(([grid.lower], grid.mids, [grid.upper])))


def _best_response_with_value(rule, belief: Tabulated, grid: Grid,
                              scan: np.ndarray) -> tuple[float, float]:
    """Best shade against ``belief`` and its expected retained regret, given
    the rule's scan matrix built once by :func:`_best_responses`."""
    xs = grid.samples
    weights = np.asarray(belief(xs), dtype=float) * grid.sample_width

    def objective(s: float) -> float:
        return float(retained_integrand(s, rule, xs) @ weights)

    cands = _scan_shades(grid)
    vals = scan @ weights

    pool: list[tuple[float, float]] = [(float(cands[0]), float(vals[0])), (float(cands[-1]), float(vals[-1]))]
    for idx in _local_minima(vals):
        lo = cands[max(idx - 1, 0)]
        hi = cands[min(idx + 1, len(cands) - 1)]
        pool.append((float(cands[idx]), float(vals[idx])))
        if hi > lo:
            res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                                  options={"xatol": _BRENT_XATOL})
            pool.append((float(res.x), float(res.fun)))

    # ties form an equivalence class of minima: report its smallest shade as
    # the response and its best value as the attained minimum
    best_val = min(v for _, v in pool)
    tol = TIE_RTOL * (1.0 + abs(best_val))
    ties = [s for s, v in pool if v <= best_val + tol]
    s_star = min(ties, key=abs)
    return float(s_star), float(best_val)


def _best_responses(rule, beliefs: list[Tabulated], grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Best shade and its attained objective against each belief in turn."""
    # the integrand does not depend on the belief: one scan matrix serves every belief
    scan = retained_integrand(_scan_shades(grid), rule, grid.samples)
    shades = np.empty(len(beliefs))
    values = np.empty(len(beliefs))
    for b, belief in enumerate(beliefs):
        shades[b], values[b] = _best_response_with_value(rule, belief, grid, scan)
    return shades, values


def best_response_constant(rule, belief: Tabulated, grid: Grid) -> float:
    """Constant shade minimizing the expected retained regret.

    Among near-equal minima (values within ``TIE_RTOL * (1 + |best|)`` of
    the best value found, ``TIE_RTOL`` = 1e-4) the shade closest to zero is
    returned; the whole procedure is deterministic.
    """
    return float(_best_responses(rule, [belief], grid)[0][0])


def regret_at_truth(rule, f: DistributionSpec, grid: Grid) -> float:
    """Expected payment above the critical value under truthful bidding."""
    xs = grid.samples
    return float(np.dot(pdf(f, xs) * np.asarray(rule(xs), dtype=float),
                        np.full(xs.shape, grid.sample_width)))


def deviation_incentive(rule, truth: float, signal_density: Tabulated, beliefs: list[Tabulated],
                        grid: Grid) -> float:
    """Regret at truth minus the regret the bidder keeps by best responding.

    ``truth`` is :func:`regret_at_truth`.  Each belief's best-response value
    is weighed by the signal density, as :func:`~metaprice.blinding.information`
    pairs them; one ex-ante value holds at every signal.  Nonnegative up to
    quadrature error.
    """
    _, values = _best_responses(rule, beliefs, grid)
    xs = grid.samples
    # each signal node's value, interpolated between nodes and clamped at the ends
    value_curve = np.interp(xs, grid.mids, np.broadcast_to(values, grid.bins))
    retained = float(np.dot(np.asarray(signal_density(xs), dtype=float) * value_curve,
                            np.full(xs.shape, grid.sample_width)))
    return truth - retained

