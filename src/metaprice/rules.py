"""Reference payment rules and rule diagnostics.

Closed-form rules from the auction-pricing literature expressed as payments
above the critical value: VCG charges nothing; Threshold caps the payment at
a constant; Small exempts profits below a cutoff and charges fully above it;
Large does the opposite.  Each family's parameter is calibrated in closed
form so the rule collects exactly the required budget: the collected amount
is piecewise linear (Threshold) or piecewise quadratic (Small, Large) in the
parameter, so one piece is solved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bidder import best_response_constant, deviation_incentive, regret_at_truth, shade_objective
from .center import Budget, InfeasibleBudgetError, PaymentRule, collected, constraint_weights, payment_rule
from .distributions import DistributionSpec, tabulate_pdf
from .equilibrium import Instance
from .grid import Grid

FAMILIES = ("vcg", "threshold", "small", "large")


@dataclass(frozen=True)
class ReferenceRule:
    family: str
    param: float
    realized: PaymentRule


def _node_values(family: str, param: float, grid: Grid) -> np.ndarray:
    """Tabulate a family member at the grid nodes.

    Small and Large average the ideal bang-bang curve over each bin, so the
    bin containing the cutoff takes a partial value and the collected budget
    moves continuously with the parameter.
    """
    mids = grid.mids
    lo = grid.edges[:-1]
    hi = grid.edges[1:]
    if family == "vcg":
        return np.zeros(grid.bins)
    if family == "threshold":
        return np.minimum(mids, param)
    if family == "small":
        start = np.clip(param, lo, hi)
        return (hi ** 2 - start ** 2) / (2.0 * grid.width)
    if family == "large":
        stop = np.clip(param, lo, hi)
        return (stop ** 2 - lo ** 2) / (2.0 * grid.width)
    raise ValueError(f"unknown reference family {family!r}")


def realize(family: str, param: float, grid: Grid) -> ReferenceRule:
    return ReferenceRule(family, float(param), payment_rule(grid, _node_values(family, param, grid)))


def _invert(family: str, w: np.ndarray, k: float, grid: Grid) -> float:
    """The parameter nearest the family's VCG end at which the budget row ``w`` collects ``0 < k <= full``.

    So a flat stretch of the collected amount is entered at its start, and a
    ``k`` above every knot's sum by rounding is taken as the top sum.
    """
    edges, two_h = grid.edges, 2.0 * grid.width
    if family == "threshold":
        # on [knots[q], knots[q + 1]] the bins b >= q pay the cap t and the bins b < q their midpoint
        knots = np.concatenate(([grid.lower], grid.mids))
        capped = np.cumsum(w[::-1])[::-1]
        uncapped = np.concatenate(([0.0], np.cumsum(w * grid.mids)))
        at = uncapped + knots * np.append(capped, 0.0)
    else:
        knots = edges
        whole = w * (edges[1:] ** 2 - edges[:-1] ** 2) / two_h  # what each bin pays when the cutoff clears it
        at = (np.append(np.cumsum(whole[::-1])[::-1], 0.0) if family == "small"
              else np.concatenate(([0.0], np.cumsum(whole))))
    reached = at >= min(k, at.max())
    if family == "small":  # collects less as the cutoff rises: the last knot that still reaches k opens the piece
        q = len(at) - 1 - int(np.argmax(reached[::-1]))
        param = math.sqrt(max(edges[q + 1] ** 2 - two_h * (k - at[q + 1]) / w[q], 0.0))
    else:  # the first knot that reaches k closes the piece
        q = max(int(np.argmax(reached)) - 1, 0)
        param = ((k - uncapped[q]) / capped[q] if family == "threshold"
                 else math.sqrt(edges[q] ** 2 + two_h * (k - at[q]) / w[q]))
    return min(max(param, knots[q]), knots[q + 1])


def calibrate(family: str, f: DistributionSpec, shades: float | np.ndarray, budget: Budget,
              grid: Grid) -> ReferenceRule:
    """Pick the family parameter so the budget constraint binds at the shade profile.

    The amount the budget row ``w`` collects is continuous and monotone in
    the parameter, and between two adjacent breakpoints it is one simple
    piece: linear in the cap between midpoints for Threshold, and for Small
    and Large quadratic in the cutoff inside a bin, where only the bin holding
    the cutoff pays in part.  The amount at every breakpoint (the midpoints,
    with ``lower`` in front, for Threshold; the bin edges for Small and
    Large) comes from one cumulative sum over ``w``.  The two adjacent
    breakpoints whose amounts bracket ``k`` fix the piece, which is solved
    exactly: a division for Threshold, one square root for Small and Large.
    A ``k`` up to ``1e-12`` relative above the most the family collects
    takes the family's most collecting parameter.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown reference family {family!r}")
    w = constraint_weights(shades, tabulate_pdf(f, grid), grid)
    k = budget.k

    degenerate = {"vcg": 0.0, "threshold": 0.0, "small": grid.upper, "large": grid.lower}
    if k <= 0.0:
        return realize(family, degenerate[family], grid)
    if family == "vcg":
        raise InfeasibleBudgetError("VCG collects nothing; it cannot meet a positive budget")

    def take(param: float) -> float:
        return float(np.dot(w, _node_values(family, param, grid)))

    extreme = grid.lower if family == "small" else grid.upper
    full = take(extreme)
    if k > full * (1.0 + 1e-12):
        raise InfeasibleBudgetError(
            f"budget k={k:.6g} exceeds maximum collectible {full:.6g} for family {family!r}"
        )
    param = extreme if k > full else _invert(family, w, k, grid)
    got = take(param)
    if abs(got - k) > 1e-6 * max(k, 1e-12):
        raise InfeasibleBudgetError(
            f"calibration of {family!r} stalled at collected={got:.9g} for k={k:.9g}"
        )
    return realize(family, param, grid)


@dataclass(frozen=True)
class RuleDiagnostics:
    """Flat scalar report on a payment rule against a profit distribution."""

    regret_at_truth: float
    worst_case_regret: float
    deviation_incentive: float
    best_response_shade: float
    retained_at_best_response: float
    collected_at_truth: float
    collected_at_strategy: float


def diagnose(rule: PaymentRule, instance: Instance) -> RuleDiagnostics:
    """Rule scorecard: regret measures, deviation incentive, collected budget.

    The deviation incentive is taken against the instance's bidder; the
    collected budget is taken at the bidder's constant best response.
    """
    f, grid = instance.f, instance.grid
    ftab = tabulate_pdf(f, grid)
    s_star = best_response_constant(rule, ftab, grid)
    truth = regret_at_truth(rule, f, grid)
    return RuleDiagnostics(
        regret_at_truth=truth,
        worst_case_regret=float(rule.values.max()),
        deviation_incentive=deviation_incentive(rule, truth, instance.signal_density, instance.bidder),
        best_response_shade=s_star,
        retained_at_best_response=shade_objective(s_star, rule, ftab, grid),
        collected_at_truth=collected(rule, 0.0, ftab, grid),
        collected_at_strategy=collected(rule, s_star, ftab, grid),
    )
