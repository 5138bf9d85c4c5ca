"""Equilibrium of the center-bidder meta-game by damped iterated best response.

Each round the center re-solves its budget-balance program against the
damped bidder strategy and the bidder best-responds to the fresh rule; both
iterates are then folded into exponentially damped averages.  The loop stops
when the sup-norm movement of both averages falls below the tolerance.
Failure to converge is reported, not raised; an infeasible center budget
propagates as :class:`~metaprice.center.InfeasibleBudgetError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .bidder import Strategy, _best_responses
from .blinding import information
from .center import Budget, PaymentRule, payment_rule, solve_center
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


@dataclass
class EquilibriumTrace:
    config: EquilibriumConfig
    budget: Budget
    constraint_density: Tabulated
    signal_density: Tabulated
    beliefs: np.ndarray  # (n_beliefs, bins) node values
    rounds: list[Round] = field(default_factory=list)
    converged: bool = False
    rule: PaymentRule | None = None
    strategy: Strategy | None = None

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def find_equilibrium(f: DistributionSpec, config: EquilibriumConfig, grid: Grid) -> EquilibriumTrace:
    """Run damped iterated best response from the truthful strategy.

    The mode sets only the information: ex ante the center weighs objective
    and budget row by ``f`` and the bidder answers ``f`` with one shade;
    blinded, the center weighs them by the bidder- and center-blinded
    densities and the bidder answers each signal's posterior.
    """
    budget = Budget.from_gamma(config.gamma, f, grid)
    blinded = config.mode == "blinded"
    signal_density, beliefs, constraint_density = information(
        f, config.mu_sigma if blinded else None, config.w_sigma, grid)

    trace = EquilibriumTrace(config=config, budget=budget, constraint_density=constraint_density,
                             signal_density=signal_density, beliefs=beliefs)
    alpha = config.alpha
    r_bar = np.zeros(grid.bins)
    s_bar = np.zeros(grid.bins)

    for _ in range(config.max_rounds):
        damped_strategy = Strategy.functional(Tabulated(grid, s_bar, "strategy"))
        rule_t = solve_center(signal_density, constraint_density, damped_strategy, budget, grid)
        s_t, _ = _best_responses(rule_t, beliefs, grid)

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
    trace.strategy = (Strategy.functional(Tabulated(grid, s_bar, "strategy")) if blinded
                      else Strategy.const(s_bar[0]))
    return trace


def format_report(trace: EquilibriumTrace) -> str:
    """Human-readable convergence report for a finished trace."""
    cfg = trace.config
    lines = [
        f"mode: {cfg.mode}",
        f"gamma: {cfg.gamma}  (k = {trace.budget.k:.6g}, k_vcg = {trace.budget.k_vcg:.6g})",
        f"alpha: {cfg.alpha}  tolerance: {cfg.tolerance}  max_rounds: {cfg.max_rounds}",
        f"rounds: {trace.n_rounds}  converged: {trace.converged}",
        "round  r_delta       s_delta",
    ]
    for i, rnd in enumerate(trace.rounds, 1):
        lines.append(f"{i:5d}  {rnd.r_delta:<12.6g}  {rnd.s_delta:<12.6g}")
    if trace.strategy is not None and trace.strategy.constant is not None:
        lines.append(f"final shade: {trace.strategy.constant:.6g}")
    return "\n".join(lines)
