"""Equilibrium of the center-bidder meta-game by damped iterated best response.

Each round the center re-solves its budget-balance program against the
damped bidder strategy and the bidder best-responds to the fresh rule; both
iterates are then folded into exponentially damped averages.  The loop stops
when the sup-norm movement of both averages falls below the tolerance.
Failure to converge is reported, not raised; an infeasible center budget
propagates as :class:`~metaprice.center.InfeasibleBudgetError`.
:func:`diagnose` scores any rule against an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .bidder import KeptScan, deviation_incentive, regret_at_truth, shade_objective
from .blinding import information
from .center import Budget, PaymentRule, collected, payment_rule, solve_center
from .distributions import DistributionSpec
from .grid import Grid, Tabulated, whole_number

Mode = Literal["exante", "blinded"]


@dataclass(frozen=True)
class EquilibriumConfig:
    mode: Mode = "exante"
    gamma: float = 0.25
    mu_sigma: float | None = None
    w_sigma: float | None = None
    alpha: float = 0.2
    max_rounds: int = 50
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        if self.mode not in ("exante", "blinded"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("damping alpha must lie in (0, 1]")
        object.__setattr__(self, "max_rounds", whole_number("max_rounds", self.max_rounds))
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.mode == "exante" and (unread := [k for k in ("mu_sigma", "w_sigma") if getattr(self, k) is not None]):
            raise ValueError(f"exante mode reads neither mu_sigma nor w_sigma, got {unread}")
        if self.mode == "blinded":
            if self.mu_sigma is None or not self.mu_sigma > 0.0:
                raise ValueError("blinded mode requires mu_sigma > 0")
            if self.w_sigma is None or not self.w_sigma > 0.0:
                raise ValueError("blinded mode requires w_sigma > 0")


@dataclass(frozen=True)
class Round:
    """One round: the center's rule and the bidder's shade against each belief."""

    rule: PaymentRule
    shades: np.ndarray
    r_delta: float
    s_delta: float


@dataclass(frozen=True)
class Instance:
    """What a solve holds fixed: ``f`` on ``grid`` under ``config``, the budget, the bidder's
    signal density, the center's budget density and ``bidder``, the bidder's kept scan."""

    f: DistributionSpec
    config: EquilibriumConfig
    grid: Grid
    budget: Budget
    signal_density: Tabulated
    constraint_density: Tabulated
    bidder: KeptScan

    @classmethod
    def build(cls, f: DistributionSpec, config: EquilibriumConfig, grid: Grid) -> "Instance":
        """The mode sets only the information: ex ante the center weighs objective and
        budget row by ``f`` and the bidder answers ``f`` with one shade; blinded, by the
        bidder- and center-blinded densities, and the bidder answers each signal's posterior."""
        budget = Budget.from_gamma(config.gamma, f, grid)
        signal_density, beliefs, constraint_density = information(f, config.mu_sigma, config.w_sigma, grid)
        return cls(f, config, grid, budget, signal_density, constraint_density, KeptScan(beliefs, grid))


def diagnose(rule: PaymentRule, instance: Instance) -> dict[str, float]:
    """Rule scorecard, flat as ``diagnose`` prints it: regret measures,
    deviation incentive, collected budget.

    The deviation incentive is taken against the instance's bidder; the
    collected budget is taken at the constant best response of an ex-ante
    bidder: the instance's own when its config is ex ante, else one scan of
    ``f``'s table.
    """
    f, grid = instance.f, instance.grid
    shades, values = instance.bidder.respond(rule)
    ftab = instance.signal_density
    if instance.config.mode == "blinded":
        ftab, beliefs, _ = information(f, None, None, grid)
        shades = KeptScan(beliefs, grid).respond(rule)[0]
    s_star, truth = float(shades[0]), regret_at_truth(rule, f, grid)
    return {
        "regret_at_truth": truth,
        "worst_case_regret": float(rule.values.max()),
        "deviation_incentive": deviation_incentive(truth, values, instance.signal_density),
        "best_response_shade": s_star,
        "retained_at_best_response": shade_objective(s_star, rule, ftab, grid),
        "collected_at_truth": collected(rule, 0.0, ftab, grid),
        "collected_at_strategy": collected(rule, s_star, ftab, grid),
    }


@dataclass
class EquilibriumTrace:
    instance: Instance
    rounds: list[Round] = field(default_factory=list)
    converged: bool = False
    rule: PaymentRule | None = None
    strategy: np.ndarray | None = None  # (bins,) shade nodes, constant ex ante

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def find_equilibrium(f: DistributionSpec, config: EquilibriumConfig, grid: Grid) -> EquilibriumTrace:
    """Run damped iterated best response from the truthful strategy on the
    instance :meth:`Instance.build` makes of ``f``, ``config`` and ``grid``."""
    instance = Instance.build(f, config, grid)
    trace = EquilibriumTrace(instance)
    alpha = config.alpha
    r_bar = np.zeros(grid.bins)
    s_bar = np.zeros(grid.bins)

    for _ in range(config.max_rounds):
        rule_t = solve_center(instance.signal_density, instance.constraint_density, s_bar, instance.budget, grid)
        s_t, _ = instance.bidder.respond(rule_t)

        r_next = (1.0 - alpha) * r_bar + alpha * rule_t.values
        s_next = (1.0 - alpha) * s_bar + alpha * s_t
        r_delta = float(np.max(np.abs(r_next - r_bar)))
        s_delta = float(np.max(np.abs(s_next - s_bar)))
        trace.rounds.append(Round(rule_t, s_t, r_delta, s_delta))
        r_bar, s_bar = r_next, s_next
        if r_delta <= config.tolerance and s_delta <= config.tolerance:
            trace.converged = True
            break

    trace.rule = payment_rule(grid, r_bar)
    trace.strategy = s_bar
    return trace


def format_report(trace: EquilibriumTrace) -> str:
    """Human-readable convergence report for a finished trace."""
    cfg, budget = trace.instance.config, trace.instance.budget
    lines = [
        f"mode: {cfg.mode}",
        f"gamma: {cfg.gamma}  (k = {budget.k:.6g}, k_vcg = {budget.k_vcg:.6g})",
        f"alpha: {cfg.alpha}  tolerance: {cfg.tolerance}  max_rounds: {cfg.max_rounds}",
        f"rounds: {trace.n_rounds}  converged: {trace.converged}",
        "round  r_delta       s_delta",
    ]
    for i, rnd in enumerate(trace.rounds, 1):
        lines.append(f"{i:5d}  {rnd.r_delta:<12.6g}  {rnd.s_delta:<12.6g}")
    if cfg.mode == "exante":
        lines.append(f"final shade: {trace.strategy[0]:.6g}")
    return "\n".join(lines)
