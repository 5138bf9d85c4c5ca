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
from bisect import bisect_left, bisect_right

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
# KeptScan refills its whole matrix in place once more than a third of the rule's pieces moved
_REFILL_FRACTION = 3


class Strategy:
    """Checked shade profiles from outside input.  A shade profile is the shade at each
    grid midpoint: a ``(bins,)`` array, or one float meaning that shade at every node."""

    @staticmethod
    def const(s: float) -> float:
        """The constant shade ``s``; rejects a negative or NaN one."""
        s = float(s)
        if not s >= 0.0:
            raise ValueError("constant shade must be >= 0")
        return s

    @staticmethod
    def functional(table: Tabulated) -> np.ndarray:
        """The node values of a ``"strategy"`` tabulation, each in ``[0, upper]``."""
        if table.kind != "strategy":
            raise ValueError("functional strategy must use a 'strategy' tabulation")
        if np.any(table.values < 0.0):
            raise ValueError("shade values must be >= 0")
        if np.any(table.values > table.grid.upper):
            raise ValueError("shade values cannot exceed the grid range")
        return table.values


def _pieces(rule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(cuts, nodes, slopes, lefts)``: ``rule`` as ``bins + 1`` linear pieces.

    On ``cuts[j] <= x < cuts[j + 1]`` (the nodes between ``-inf`` and
    ``inf``) ``r(x)`` is ``slopes[j] * (x - nodes[j]) + lefts[j]``, with
    ``np.interp``'s slope ``(y[j+1] - y[j]) / (x[j+1] - x[j])`` inside and
    slope 0 at the two clamped ends; at a node that is ``0 + y``, the node value.
    """
    mids, y = rule.grid.mids, rule.values
    cuts = np.concatenate(([-math.inf], mids, [math.inf]))
    slopes = np.concatenate(([0.0], (y[1:] - y[:-1]) / (mids[1:] - mids[:-1]), [0.0]))
    return cuts, np.concatenate((mids[:1], mids)), slopes, np.concatenate((y[:1], y))


def _support(rule) -> tuple[float, float]:
    """``(lo, hi)``: the nodes just outside ``rule``'s outermost nonzero nodes.

    The rule is exactly zero at and beyond both: at ``x <= lo`` and at
    ``x >= hi``.  A bound is infinite where a nonzero node is an end node;
    the zero rule gives ``(inf, inf)``.
    """
    nonzero = np.flatnonzero(rule.values)
    if nonzero.size == 0:
        return math.inf, math.inf
    mids, first, last = rule.grid.mids, nonzero[0], nonzero[-1]
    lo = float(mids[first - 1]) if first > 0 else -math.inf
    hi = float(mids[last + 1]) if last + 1 < len(mids) else math.inf
    return lo, hi


class RetainedRow:
    """Fills ``row`` with one rule's retained regret at the ascending ``xs``, one shade per call.

    ``fill(v)`` overwrites ``fill.row`` with ``I[x < v] x + I[x >= v] r(x - v)``
    and returns it.  The rule is evaluated only on the winning tail inside
    its :func:`_support`, bisected at ``lo + v`` and ``hi + v`` and at most one
    sample wider on each side, one linear piece at a time: ``slope * (x - node)
    + left`` in numpy's order of operations (:func:`_pieces`), the same bits as
    ``np.interp``.  The rest of the tail is zero; a sample outside the support
    lies in a piece between or past zero nodes, which gives the same ``+0.0``.

    Each call rewrites only what its shade moved.  The prefix ``xs[:i0]`` and
    the zero fills depend on nothing but the bounds ``(i0, a, b)``, and the
    piece arrays spread over the window on nothing but its piece counts, so
    each is rebuilt only when those change; the window itself is refilled on
    every call.  ``reset(row)`` moves the fill to a new ``row``.
    """

    def __init__(self, rule, xs: np.ndarray) -> None:
        self.xs, self.support, self.pieces = xs, _support(rule), _pieces(rule)
        # the bounds are searched with bisect on xs read in place as Python floats
        self._keys = memoryview(xs)
        self._counts = self._spread = None
        self.reset(np.empty(xs.size))

    def reset(self, row: np.ndarray) -> None:
        """Fill ``row`` from the next call on, starting it afresh."""
        self.row, self._bounds = row, None

    def __call__(self, v: float) -> np.ndarray:
        keys, xs, row = self._keys, self.xs, self.row
        lo, hi = self.support
        i0 = bisect_left(keys, v)
        a = max(i0, bisect_right(keys, lo + v, i0) - 1)
        b = min(len(keys), bisect_left(keys, hi + v, i0) + 1)
        if (i0, a, b) != self._bounds:
            self._bounds = i0, a, b
            row[:i0] = xs[:i0]
            row[i0:a] = 0.0
            row[b:] = 0.0
        x = np.subtract(xs[a:b], v, out=row[a:b])
        cuts, nodes, slopes, lefts = self.pieces
        at = x.searchsorted(cuts)
        counts = at[1:] - at[:-1]
        key = counts.tobytes()
        if key != self._counts:
            self._counts = key
            # the ndarray method: np.repeat's dispatch costs a third of the kernel here
            self._spread = nodes.repeat(counts), slopes.repeat(counts), lefts.repeat(counts)
        spread_nodes, spread_slopes, spread_lefts = self._spread
        x -= spread_nodes
        x *= spread_slopes
        x += spread_lefts
        return row


def _fill_rows(out: np.ndarray, shades: np.ndarray, rule, xs: np.ndarray) -> np.ndarray:
    """Fill ``out``'s rows in place with the retained regret ``I[x < s] x + I[x >= s] r(x - s)``
    at the ascending ``xs``, one row per shade, through one :class:`RetainedRow`."""
    fill = RetainedRow(rule, xs)
    for row, v in zip(out, shades.tolist()):
        fill.reset(row)
        fill(v)
    return out


def _weights(belief: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature weights at ``grid.samples`` of a belief's node values on ``grid.mids``."""
    return np.interp(grid.samples, grid.mids, belief) * grid.sample_width


def shade_objective(s, rule, belief: Tabulated, grid: Grid):
    """Expected retained regret of shading by ``s`` (a scalar or an array) under ``belief``."""
    shades, xs = np.atleast_1d(np.asarray(s, dtype=float)), grid.samples
    out = _fill_rows(np.empty((shades.size, xs.size)), shades, rule, xs) @ _weights(belief.values, grid)
    return float(out[0]) if np.ndim(s) == 0 else out


def _local_minima(values: np.ndarray) -> np.ndarray:
    left = np.concatenate(([np.inf], values[:-1]))
    right = np.concatenate((values[1:], [np.inf]))
    return np.flatnonzero((values <= left) & (values <= right))


def _scan_shades(grid: Grid) -> np.ndarray:
    """Shades of the grid scan over ``[0, upper]``: zero, every bin midpoint and ``upper``;
    below ``grid.lower`` a bid wins at every profit."""
    return np.unique(np.concatenate(([0.0], grid.mids, [grid.upper])))


class KeptScan:
    """The bidder's grid scan kept for one solve: its ``beliefs`` and ``grid``,
    the scan shades, their ``(shades, samples)`` matrix of retained regret
    under the last rule, and each belief's quadrature weights, built once.
    ``respond(rule)`` is the bidder's one best-response call.

    A row sits at a fixed shade, so which of its samples fall in which of the
    rule's linear pieces depends on the grid alone: the scan finds where each
    piece starts in each row when it is built.  ``update(rule)`` fills every
    row through :class:`RetainedRow` for a rule that moved more than a third
    of the pieces (``_REFILL_FRACTION``), the first rule among them, where
    that is cheaper; for any other it rewrites only the pieces whose
    ``(slope, left)`` bytes changed, with the kernel's operations in its
    order.  A piece outside the support has slope and left zero and gives
    ``+0.0``, the zero fill.
    """

    def __init__(self, beliefs: np.ndarray, grid: Grid) -> None:
        self.beliefs, self.grid, self.xs = beliefs, grid, grid.samples
        self.shades = shades = _scan_shades(grid)
        self.weights = [_weights(belief, grid) for belief in beliefs]
        xs, cuts = grid.samples, np.concatenate(([-math.inf], grid.mids, [math.inf]))  # _pieces' cuts
        self.matrix, self._key = np.empty((shades.size, xs.size)), None
        # (pieces + 1, shades): where each piece starts in each row, found on the computed xs - v
        self._starts = np.array([i + (xs[i:] - v).searchsorted(cuts)
                                 for v, i in zip(shades.tolist(), xs.searchsorted(shades))]).T

    def update(self, rule) -> np.ndarray:
        _, nodes, slopes, lefts = _pieces(rule)
        key = np.stack((slopes, lefts)).view(np.int64)
        xs, shades = self.xs, self.shades
        # the first rule moves every piece
        moved = range(len(slopes)) if self._key is None else np.flatnonzero((key != self._key).any(axis=0)).tolist()
        if len(moved) * _REFILL_FRACTION > len(slopes):
            _fill_rows(self.matrix, shades, rule, xs)
        else:
            for j in moved:
                a, n = self._starts[j], self._starts[j + 1] - self._starts[j]
                # every row's samples in piece j, row after row
                rows = np.repeat(np.arange(n.size), n)
                cols = np.repeat(a + n - n.cumsum(), n) + np.arange(n.sum())
                x = xs[cols]
                x -= shades[rows]
                x -= nodes[j]
                x *= slopes[j]
                x += lefts[j]
                self.matrix[rows, cols] = x
        self._key = key
        return self.matrix

    def respond(self, rule) -> tuple[np.ndarray, np.ndarray]:
        """Best shade and its attained objective against each belief in turn."""
        # the integrand does not depend on the belief: one scan matrix serves every
        # belief, and one row refilled by every Brent evaluation
        matrix, cands = self.update(rule), self.shades.tolist()
        fill = RetainedRow(rule, self.xs)
        shades = np.empty(len(self.weights))
        values = np.empty(len(self.weights))
        for b, weights in enumerate(self.weights):
            shades[b], values[b] = _best_response_with_value(fill, weights, cands, matrix)
        return shades, values


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


def _best_response_with_value(fill: RetainedRow, weights: np.ndarray, cands: list[float],
                              matrix: np.ndarray) -> tuple[float, float]:
    """Best shade against a belief's quadrature weights and its expected
    retained regret, given the scan shades, the rule's scan matrix and its
    row evaluator on ``grid.samples`` (:meth:`KeptScan.respond`)."""

    def objective(s: float) -> float:
        return float(fill(s) @ weights)

    vals = matrix @ weights

    pool: list[tuple[float, float]] = [(cands[0], float(vals[0])), (cands[-1], float(vals[-1]))]
    for idx in _local_minima(vals):
        lo = cands[max(idx - 1, 0)]
        hi = cands[min(idx + 1, len(cands) - 1)]
        pool.append((cands[idx], float(vals[idx])))
        if hi > lo:
            pool.append(_brent_bounded(objective, lo, hi, _BRENT_XATOL)[:2])

    # ties form an equivalence class of minima: report its smallest shade as
    # the response and its best value as the attained minimum
    best_val = min(v for _, v in pool)
    tol = TIE_RTOL * (1.0 + abs(best_val))
    ties = [s for s, v in pool if v <= best_val + tol]
    s_star = min(ties, key=abs)
    return float(s_star), float(best_val)


def best_response_constant(rule, belief: Tabulated, grid: Grid) -> float:
    """Constant shade minimizing the expected retained regret.

    Among near-equal minima (values within ``TIE_RTOL * (1 + |best|)`` of
    the best value found, ``TIE_RTOL`` = 1e-4) the shade closest to zero is
    returned; the whole procedure is deterministic.
    """
    return float(KeptScan(belief.values[None, :], grid).respond(rule)[0][0])


def regret_at_truth(rule, f: DistributionSpec, grid: Grid) -> float:
    """Expected payment above the critical value under truthful bidding."""
    xs = grid.samples
    return float(np.dot(pdf(f, xs) * np.asarray(rule(xs), dtype=float),
                        np.full(xs.shape, grid.sample_width)))


def deviation_incentive(truth: float, values: np.ndarray, signal_density: Tabulated) -> float:
    """Regret at truth minus the regret the bidder keeps by best responding.

    ``truth`` is :func:`regret_at_truth` and ``values`` the best-response
    values :meth:`KeptScan.respond` gives against each belief, weighed by the
    signal density as :func:`~metaprice.blinding.information` pairs them; one
    ex-ante value holds at every signal.  Nonnegative up to quadrature error:
    ``truth`` integrates the exact pdf while the bidder's values use the
    tabulated ``f``, so the difference can dip below zero (ROADMAP item 10).
    """
    grid = signal_density.grid
    xs = grid.samples
    # each signal node's value, interpolated between nodes and clamped at the ends
    value_curve = np.interp(xs, grid.mids, np.broadcast_to(values, grid.bins))
    retained = float(np.dot(np.asarray(signal_density(xs), dtype=float) * value_curve,
                            np.full(xs.shape, grid.sample_width)))
    return truth - retained
