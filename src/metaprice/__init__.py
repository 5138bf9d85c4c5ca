"""Approximately incentive-compatible payment rules for budget-balanced exchanges.

The package solves, on a one-dimensional potential-profit grid, the game
between a center that picks a payment rule under a budget-balance constraint
and a bidder that shades its bid: distributions and blinding kernels model
the information structure, the center's program reduces to an exact
continuous knapsack, and a damped iterated-best-response loop locates the
equilibrium rule and shade.
"""

from .grid import Grid, Tabulated, integrate, make_grid
from .distributions import (DistributionSpec, burr_xii, cdf, fit_empirical, gpd, mean,
                            pdf, tabulate_pdf, truncated_normal, uniform)
from .blinding import blind, information
from .bidder import (Strategy, best_response_constant, deviation_incentive, retained_integrand,
                     shade_objective)
from .center import (Budget, InfeasibleBudgetError, PaymentRule, constraint_weights,
                     k_vcg, payment_rule, ratio_diagnostics, solve_center)
from .rules import ReferenceRule, calibrate, realize
from .equilibrium import EquilibriumConfig, EquilibriumTrace, Instance, diagnose, find_equilibrium, format_report

__all__ = [
    "Grid", "Tabulated", "integrate", "make_grid",
    "DistributionSpec", "gpd", "burr_xii", "truncated_normal", "uniform",
    "fit_empirical", "pdf", "cdf", "mean", "tabulate_pdf",
    "blind", "information",
    "Strategy", "retained_integrand", "shade_objective", "best_response_constant",
    "deviation_incentive",
    "Budget", "PaymentRule", "payment_rule", "InfeasibleBudgetError",
    "constraint_weights", "solve_center",
    "ratio_diagnostics", "k_vcg",
    "ReferenceRule", "calibrate", "realize",
    "EquilibriumConfig", "EquilibriumTrace", "Instance", "diagnose", "find_equilibrium", "format_report",
]
