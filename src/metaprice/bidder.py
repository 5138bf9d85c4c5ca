"""Bidder best responses.

The bidder shades its bid by ``s``: with true potential profit ``psi`` it
wins whenever ``psi >= s``, retains regret ``r(psi - s)`` (the payment above
the critical value), and forfeits the full ``psi`` when it loses.  The
expected retained regret is minimized over ``s in [0, U]`` by a midpoint
grid scan followed by bounded Brent refinement of every local basin, with
ties broken toward the smallest shade.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, pdf
from .grid import Grid, Tabulated

# Relative tolerance for declaring shade minima tied.  The shade objective is
# flat near its optimum (many near-equal minima), so the reported shade is the
# smallest one within this band of the best value; anchoring there keeps the
# result stable under quadrature refinement.
TIE_RTOL = 1e-4
_BRENT_XATOL = 1e-10
_BRENT_MAXFUN = 500


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


def _tail_search(xs: np.ndarray, v: float, i0: int, bound: float, side: str) -> int:
    """``i0 + np.searchsorted(xs[i0:] - v, bound, side)``, subtracting ``v`` near the answer only.

    The guess at ``bound + v`` on ``xs`` is stepped to the exact index on the
    computed ``xs[j] - v``, which never decreases as ``xs[j]`` grows.
    """
    before = operator.le if side == "right" else operator.lt
    j = max(int(xs.searchsorted(bound + v, side)), i0)
    while j > i0 and not before(xs[j - 1] - v, bound):
        j -= 1
    while j < xs.size and before(xs[j] - v, bound):
        j += 1
    return j


def _retained_row(row: np.ndarray, v: float, rule, xs: np.ndarray) -> np.ndarray:
    """Fill ``row`` in place with the retained regret at the one shade ``v``; return it.

    The rule is interpolated only inside its support, and only that window
    of the winning tail is shifted by ``v``.
    """
    lo, hi = rule.support
    i0 = int(xs.searchsorted(v))
    a = _tail_search(xs, v, i0, lo, "right")
    b = _tail_search(xs, v, i0, hi, "left")
    row[:i0] = xs[:i0]
    row[i0:a] = 0.0
    window = np.subtract(xs[a:b], v, out=row[a:b])
    row[a:b] = rule(window)
    row[b:] = 0.0
    return row


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
    for row, v in zip(out, shades):
        _retained_row(row, v, rule, xs)
    return out if np.ndim(s) > 0 else out[0]


def _weights(belief: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature weights at ``grid.samples`` of a belief's node values on ``grid.mids``."""
    return np.interp(grid.samples, grid.mids, belief) * grid.sample_width


def shade_objective(s, rule, belief: Tabulated, grid: Grid):
    """Expected retained regret of shading by ``s`` (a scalar or an array) under ``belief``."""
    weights = _weights(belief.values, grid)
    out = retained_integrand(np.atleast_1d(np.asarray(s, dtype=float)), rule, grid.samples) @ weights
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


def _sign(t: float) -> float:
    """``np.sign(t) + (t == 0)``: -1.0 below zero, else 1.0."""
    return -1.0 if t < 0.0 else 1.0


def _brent_bounded(func, a: float, b: float, xatol: float) -> tuple[float, float, int]:
    """Minimize ``func`` on ``[a, b]`` by bounded Brent: ``(x, f(x), evaluations)``.

    A line-for-line port of scipy 1.17's ``_minimize_scalar_bounded``, the
    ``minimize_scalar(method="bounded")`` solver, on Python floats: the same
    operations in the same order, so the same iterates, and at most 500
    evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _BRENT_MAXFUN:
            break

    return xf, fx, num


def _best_response_with_value(rule, belief: np.ndarray, grid: Grid,
                              scan: np.ndarray) -> tuple[float, float]:
    """Best shade against a belief's node values and its expected retained
    regret, given the rule's scan matrix built once by :func:`_best_responses`."""
    xs = grid.samples
    weights = _weights(belief, grid)
    # every Brent evaluation refills this one row
    row = np.empty(xs.size)

    def objective(s: float) -> float:
        return float(_retained_row(row, s, rule, xs) @ weights)

    cands = _scan_shades(grid)
    vals = scan @ weights

    pool: list[tuple[float, float]] = [(float(cands[0]), float(vals[0])), (float(cands[-1]), float(vals[-1]))]
    for idx in _local_minima(vals):
        lo = float(cands[max(idx - 1, 0)])
        hi = float(cands[min(idx + 1, len(cands) - 1)])
        pool.append((float(cands[idx]), float(vals[idx])))
        if hi > lo:
            pool.append(_brent_bounded(objective, lo, hi, _BRENT_XATOL)[:2])

    # ties form an equivalence class of minima: report its smallest shade as
    # the response and its best value as the attained minimum
    best_val = min(v for _, v in pool)
    tol = TIE_RTOL * (1.0 + abs(best_val))
    ties = [s for s, v in pool if v <= best_val + tol]
    s_star = min(ties, key=abs)
    return float(s_star), float(best_val)


def _best_responses(rule, beliefs: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Best shade and its attained objective against each row of node values in turn."""
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
    return float(_best_responses(rule, belief.values[None, :], grid)[0][0])


def regret_at_truth(rule, f: DistributionSpec, grid: Grid) -> float:
    """Expected payment above the critical value under truthful bidding."""
    xs = grid.samples
    return float(np.dot(pdf(f, xs) * np.asarray(rule(xs), dtype=float),
                        np.full(xs.shape, grid.sample_width)))


def deviation_incentive(rule, truth: float, signal_density: Tabulated, beliefs: np.ndarray,
                        grid: Grid) -> float:
    """Regret at truth minus the regret the bidder keeps by best responding.

    ``truth`` is :func:`regret_at_truth`.  Each belief's best-response value
    is weighed by the signal density, as :func:`~metaprice.blinding.information`
    pairs them; one ex-ante value holds at every signal.  Nonnegative up to
    quadrature error: ``truth`` integrates the exact pdf while the bidder's
    values use the tabulated ``f``, so the difference can dip below zero
    (ROADMAP item 6).
    """
    _, values = _best_responses(rule, beliefs, grid)
    xs = grid.samples
    # each signal node's value, interpolated between nodes and clamped at the ends
    value_curve = np.interp(xs, grid.mids, np.broadcast_to(values, grid.bins))
    retained = float(np.dot(np.asarray(signal_density(xs), dtype=float) * value_curve,
                            np.full(xs.shape, grid.sample_width)))
    return truth - retained

