"""Center best response: the budget-balance LP as an exact continuous knapsack.

Discretized on the grid, the center's program is

    min   sum_b c_b r_b                 (expected regret at truth)
    s.t.  sum_b w_b r_b >= k            (budget balance)
          0 <= r_b <= mid_b             (IR and the VCG envelope)

with ``c`` the objective-density bin masses and ``w`` the constraint-density
masses scattered to the nodes where shaded reports land.  A single linear
constraint plus box bounds is a continuous knapsack, so sorting bins by
``w_b / c_b`` and filling greedily is exactly optimal; at most one bin ends
strictly between its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, cdf, mean
from .grid import Grid, Kind, Tabulated


class InfeasibleBudgetError(RuntimeError):
    """The required collection exceeds what the envelope can raise."""


def k_vcg(f: DistributionSpec, grid: Grid) -> float:
    """Total surplus a strategyproof rule would hand out: E[psi]."""
    return mean(f, grid)


@dataclass(frozen=True)
class Budget:
    """Collection target ``k = gamma * k_vcg``."""

    gamma: float
    k_vcg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not self.k_vcg > 0.0:
            raise ValueError("k_vcg must be positive")

    @property
    def k(self) -> float:
        return self.gamma * self.k_vcg

    @classmethod
    def from_gamma(cls, gamma: float, f: DistributionSpec, grid: Grid) -> "Budget":
        return cls(float(gamma), k_vcg(f, grid))


@dataclass(frozen=True)
class PaymentRule(Tabulated):
    """Payment above the critical value: a ``"rule"`` node table.

    Node values satisfy ``0 <= r_b <= mid_b`` exactly; the final payment a
    winner faces is its critical value plus ``r`` at the reported excess.
    """

    kind: Kind = field(default="rule", init=False)

    def __post_init__(self) -> None:
        # a -0.0 node is stored as +0.0, the value the bidder's piece form (bidder._pieces)
        # gives there and the one rule.csv writes; x + 0.0 is x for any other x
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float) + 0.0)
        super().__post_init__()
        if np.any(self.values < 0.0) or np.any(self.values > self.grid.mids):
            raise ValueError("payment rule must satisfy 0 <= r(psi) <= psi at every node")


def payment_rule(grid: Grid, values) -> PaymentRule:
    """Clamp tiny numerical excursions into the envelope and build the rule."""
    return PaymentRule(grid, np.clip(np.asarray(values, dtype=float), 0.0, grid.mids))


def constraint_weights(shades: float | np.ndarray, constraint_density: Tabulated, grid: Grid) -> np.ndarray:
    """Budget-row weights ``w`` with the constraint reading ``sum w_b r_b >= k``.

    ``shades`` is the shade profile: the shade at each node, a ``(bins,)``
    array or one float for all of them.  Each bin's mass is moved to the
    shaded report position ``mid_b - s_b`` and split onto the two adjacent
    rule nodes with linear weights.  Mass shifted below zero is a lost bid
    and contributes nothing; positions above the top node clamp onto it.
    """
    masses = constraint_density.bin_masses()
    mids = grid.mids
    pos = mids - shades
    won = pos >= 0.0
    below = won & (pos <= mids[0])
    above = won & (pos >= mids[-1])
    inner = won & ~(below | above)
    p = pos[inner]
    m = masses[inner]
    j = np.searchsorted(mids, p, side="right") - 1
    lam = (p - mids[j]) / grid.width
    # one sequential sum per node, in the order: clamped ends, lower shares, upper shares
    return np.bincount(np.concatenate(([0, grid.bins - 1], j, j + 1)),
                       np.concatenate(([masses[below].sum(), masses[above].sum()], m * (1.0 - lam), m * lam)),
                       minlength=grid.bins)


def fill_ratio(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The key :func:`_greedy_fill` sorts on, ``w / c``: inf where ``c = 0 < w``, 0 where ``w = 0`` (never filled)."""
    ratio = np.divide(w, c, out=np.full(len(w), np.inf), where=c > 0.0)
    ratio[w <= 0.0] = 0.0
    return ratio


def _greedy_fill(c: np.ndarray, w: np.ndarray, ub: np.ndarray, k: float) -> np.ndarray:
    """Exact solution of ``min c.r`` s.t. ``w.r >= k``, ``0 <= r <= ub``.

    Bins are filled in descending ``w/c`` (zero-cost collecting bins first);
    tied ratios fill from the lowest bin index.  The first bin that does not fit
    is set fractionally so the constraint binds with equality; the fill stops there.
    """
    r = np.zeros_like(ub)
    capacity = float(np.dot(w, ub))
    if k > capacity * (1.0 + 1e-12):
        raise InfeasibleBudgetError(
            f"budget k={k:.6g} exceeds maximum collectible {capacity:.6g} "
            f"(shortfall {k - capacity:.6g})"
        )
    order = np.argsort(-fill_ratio(c, w), kind="stable")
    order = order[w[order] > 0.0]  # a bin that collects nothing is never filled
    wo, ubo = w[order], ub[order]
    # what each bin could take with every earlier bin at its bound: the remainders, in order, over w
    fits = np.subtract.accumulate(np.concatenate(([k], ubo * wo)))[:-1] / wo
    m = np.append(np.flatnonzero(fits < ubo), len(order))[0]  # the marginal bin
    r[order[:m + 1]] = np.clip(fits[:m + 1], 0.0, ubo[:m + 1])
    return r


def solve_center(objective_density: Tabulated, constraint_density: Tabulated,
                 shades: float | np.ndarray, budget: Budget, grid: Grid) -> PaymentRule:
    """Payment rule minimizing expected regret at truth subject to the budget.

    Raises :class:`InfeasibleBudgetError` when ``k`` exceeds the maximum
    collectible amount within the envelope at the given shade profile.
    """
    c = objective_density.bin_masses()
    w = constraint_weights(shades, constraint_density, grid)
    r = _greedy_fill(c, w, grid.mids, budget.k)
    return payment_rule(grid, r)


def ratio_diagnostics(f: DistributionSpec, s: float | np.ndarray, grid: Grid) -> np.ndarray:
    """Per-bin exact-cdf mass ratio of ``f`` at the shade profile ``s``; no run calls it, and it
    stays only because the benchmark's center-sweep calls and traces it.

    ``rho_b = [F(hi_b + s_b) - F(lo_b + s_b)] / [F(hi_b) - F(lo_b)]`` with the
    cdf saturating at the truncation boundary; bins with zero base mass map
    to inf (collectible for free) or 0.  One ``cdf`` call covers the edges
    and both shifted edge sets; the cdf is computed point by point, so each
    mass is the difference it would be from separate calls.
    """
    edges, bins = grid.edges, grid.bins
    hi = np.broadcast_to(edges[1:] + s, bins)
    lo = np.broadcast_to(edges[:-1] + s, bins)
    F = cdf(f, np.concatenate((edges, hi, lo)))
    base = F[1:bins + 1] - F[:bins]
    shifted = F[bins + 1:2 * bins + 1] - F[2 * bins + 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(base > 0.0, shifted / np.where(base > 0.0, base, 1.0),
                       np.where(shifted > 0.0, np.inf, 0.0))
    return rho


def collected(rule: PaymentRule, shades: float | np.ndarray, constraint_density: Tabulated, grid: Grid) -> float:
    """Amount the budget row actually collects at the shade profile: ``w(shades) . r``."""
    w = constraint_weights(shades, constraint_density, grid)
    return float(np.dot(w, rule.values))
