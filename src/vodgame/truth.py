"""Volunteering game for regular agents validating circulating news.

An item is validated when at least `threshold` of the `n_regular`
agents volunteer. Volunteers pay cost_volunteer, everyone pays
cost_failure when validation fails, and a shared reward pot of size
shared_reward is split evenly among the volunteers on success, funded
by an equal per-capita fee that is only levied when validation
succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _require_count, mix

__all__ = [
    "TruthGameParams",
    "PayoffPair",
    "avg_payoff_volunteer",
    "avg_payoff_defector",
    "net_payoff_regular",
    "payoff_pair_regular",
]


@dataclass(frozen=True)
class PayoffPair:
    """Average volunteer and defector payoffs at one mixing point or at each of an array."""

    volunteer_avg: float
    defector_avg: float
    net: float


@dataclass(frozen=True)
class TruthGameParams:
    """Parameters of the validation game.

    cost_failure > cost_volunteer is what makes volunteering worth
    considering at all; pass allow_nonstandard=True to study the
    degenerate orderings anyway.
    """

    n_regular: int = 100
    threshold: int = 6
    cost_volunteer: float = 0.5
    cost_failure: float = 0.9
    shared_reward: float = 5.0
    allow_nonstandard: bool = False

    def __post_init__(self) -> None:
        _require_count(self.n_regular, "n_regular", players=True)
        _require_count(self.threshold, "threshold")
        for name in ("cost_volunteer", "cost_failure", "shared_reward"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_regular < 2:
            raise ValueError("n_regular must be at least 2")
        if not 1 <= self.threshold <= self.n_regular:
            raise ValueError("threshold must lie in 1..n_regular")
        if self.cost_volunteer <= 0.0:
            raise ValueError("cost_volunteer must be positive")
        if self.cost_failure <= 0.0:
            raise ValueError("cost_failure must be positive")
        if self.shared_reward < 0.0:
            raise ValueError("shared_reward must be nonnegative")
        if self.cost_volunteer >= self.cost_failure and not self.allow_nonstandard:
            raise ValueError(
                "cost_volunteer >= cost_failure makes defection dominant; "
                "set allow_nonstandard=True to study it anyway"
            )


def _gains(params: TruthGameParams):
    # mix's gains callable for the volunteer and defector over the focal
    # agent's 0..n_regular-1 co-volunteers
    p = params
    n, k, s = p.n_regular, p.threshold, p.shared_reward

    def gains(m: np.ndarray) -> np.ndarray:
        # m is sorted: the counts below k - 1 and below k are prefixes
        below_v, below_d = m.searchsorted((k - 1, k))
        g = np.empty((2, m.size))
        g[0] = 1.0 - p.cost_volunteer + s / (m + 1.0) - s / n
        g[0, :below_v] = 1.0 - p.cost_volunteer - p.cost_failure
        g[1] = 1.0 - s / n
        g[1, :below_d] = 1.0 - p.cost_failure
        return g

    return gains


def _net_gains(params: TruthGameParams):
    # mix's gains callable for the net alone: volunteer minus defector gains
    gains = _gains(params)
    return lambda m: np.subtract(*gains(m))[None]


def _net(params: TruthGameParams):  # the net as mix's (gains, degree)
    return _net_gains(params), params.n_regular - 1


def payoff_pair_regular(x, params: TruthGameParams) -> PayoffPair:
    """Average volunteer and defector payoffs when each of the other
    n_regular-1 agents volunteers independently with probability x
    (a float, or an array of them for a PayoffPair of arrays).

    Both are binomial mixtures over the co-volunteer count m. A
    volunteer completes the quorum iff m >= threshold - 1, and then
    also nets the reward share minus the funding fee,
    shared_reward/(m+1) - shared_reward/n_regular. A defector needs
    m >= threshold and pays the fee shared_reward/n_regular only on
    that success event.
    """
    v, d = mix(_gains(params), params.n_regular - 1, x)
    return PayoffPair(v, d, v - d)


def avg_payoff_volunteer(x, params: TruthGameParams) -> float:
    """Expected payoff of a volunteer at mixing x: payoff_pair_regular's row."""
    return payoff_pair_regular(x, params).volunteer_avg


def avg_payoff_defector(x, params: TruthGameParams) -> float:
    """Expected payoff of a defector at mixing x: payoff_pair_regular's row."""
    return payoff_pair_regular(x, params).defector_avg


def net_payoff_regular(x, params: TruthGameParams) -> float:
    """avg_payoff_volunteer(x) - avg_payoff_defector(x); zero at mixed equilibria.

    It mixes the net's own gain sequence, the volunteer's gains minus the
    defector's, so it agrees with payoff_pair_regular(x, params).net to
    rounding, not bit for bit.
    """
    return mix(*_net(params), x)[0]
