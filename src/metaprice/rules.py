"""Reference payment rules and rule diagnostics.

Closed-form rules from the auction-pricing literature expressed as payments
above the critical value: VCG charges nothing; Threshold caps the payment at
a constant; Small exempts profits below a cutoff and charges fully above it;
Large does the opposite.  Cutoffs are calibrated by bisection so the rule
collects exactly the required budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidder import best_response_constant, deviation_incentive, regret_at_truth, shade_objective
from .center import Budget, InfeasibleBudgetError, PaymentRule, collected, constraint_weights, payment_rule
from .distributions import DistributionSpec, tabulate_pdf
from .equilibrium import Instance
from .grid import Grid

FAMILIES = ("vcg", "threshold", "small", "large")

_BISECT_STEPS = 100


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


def calibrate(family: str, f: DistributionSpec, shades: float | np.ndarray, budget: Budget,
              grid: Grid) -> ReferenceRule:
    """Pick the family parameter so the budget constraint binds at the shade profile.

    The collected amount is continuous and monotone in the parameter, so
    plain bisection lands within ``1e-6 * k`` of the target.
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

    lo_p, hi_p = grid.lower, grid.upper
    full = take(lo_p if family == "small" else hi_p)
    if k > full * (1.0 + 1e-12):
        raise InfeasibleBudgetError(
            f"budget k={k:.6g} exceeds maximum collectible {full:.6g} for family {family!r}"
        )
    # orient so collected(lo_p) <= k <= collected(hi_p)
    rising = family != "small"
    a, b = (lo_p, hi_p) if rising else (hi_p, lo_p)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        if take(mid) < k:
            a = mid
        else:
            b = mid
    param = b
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
