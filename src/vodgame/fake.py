"""Dissemination game for agents pushing a fabricated item.

The push wins when the fake volunteers at least match the regular
agents who turn out to validate (ties go to the fakes; the
strict_dominance switch demands strictly more). Fake volunteers pay
cost_volunteer_fake and every fake-side agent pays cost_failure when
the push loses. cost_failure is the same failure cost the regular
game uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .numerics import _pmf_window, _require_count, mix, require_probability
from .truth import PayoffPair

__all__ = [
    "FakeGameParams",
    "TailMode",
    "expected_fake_payoffs",
    "expected_net_payoff_fake",
]


class TailMode(enum.Enum):
    """How to average over the regular-side turnout M ~ Binomial(n, p*).

    FULL integrates over M = 0..n_regular. TRUNCATED keeps M = 0..n_fake
    and discards the mass above, so it is not a probability-weighted
    average; the two differ by exactly cost_volunteer_fake * P[M > n_fake].
    """

    TRUNCATED = "truncated"
    FULL = "full"


@dataclass(frozen=True)
class FakeGameParams:
    n_fake: int = 8
    cost_volunteer_fake: float = 0.1
    cost_failure: float = 0.9
    strict_dominance: bool = False

    def __post_init__(self) -> None:
        _require_count(self.n_fake, "n_fake", players=True)
        for name in ("cost_volunteer_fake", "cost_failure"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_fake < 1:
            raise ValueError("n_fake must be at least 1")
        if self.cost_volunteer_fake <= 0.0:
            raise ValueError("cost_volunteer_fake must be positive")
        if self.cost_volunteer_fake >= self.cost_failure:
            raise ValueError("cost_volunteer_fake must be below cost_failure")


def _gains(weights: np.ndarray, p: FakeGameParams):
    # mix's gains callable for the volunteer and defector over the focal
    # agent's 0..n_fake-1 volunteering peers, averaged over the regular
    # turnout M ~ weights: P[M = 0..n_fake], then the mass above n_fake
    # that the total counts (0.0 under TRUNCATED). Every M above n_fake
    # loses for both roles. The gains are built when mix calls for them,
    # so a tiny weight's products underflow under mix's np.errstate
    f = p.n_fake

    def gains(m: np.ndarray) -> np.ndarray:
        # below[i] = P[M < i] over M = 0..n_fake, for i = 0..n_fake + 1
        below = np.cumsum(np.concatenate(([0.0], weights[: f + 1])))
        total = below[-1] + weights[f + 1]
        # with j peers a defector wins iff M < lo = j + 1 - s and a volunteer
        # iff M < lo + 1, where s = 1 under strict dominance
        lo = m + (0 if p.strict_dominance else 1)
        g = np.empty((2, m.size))
        lose_v = 1.0 - p.cost_volunteer_fake - p.cost_failure
        g[0] = lose_v * total + p.cost_failure * below[lo + 1]
        g[1] = (1.0 - p.cost_failure) * total + p.cost_failure * below[lo]
        return g

    return gains


def _net_gains(weights: np.ndarray, p: FakeGameParams):
    # mix's gains callable for the net, _gains' row 0 minus row 1 as one term:
    # monotone in the pmf entry, so it rises and falls with the turnout pmf
    lo = 0 if p.strict_dominance else 1  # M = j + lo
    paid = p.cost_volunteer_fake * weights.sum()
    return lambda m: p.cost_failure * weights[None, m + lo] - paid


def _turnout(p_star: float, n_regular: int, params: FakeGameParams, tail: TailMode) -> np.ndarray:
    # _gains' weights for M ~ Binomial(n_regular, p_star): P[M = 0..n_fake]
    # and, under FULL, the mass above, read from M's Bernstein window alone.
    # The mass is summed rather than taken as 1 - kept: a pmf row's mass
    # misses 1 by ~3e-10 at n_regular = 10^6
    p_star = require_probability(p_star, "p_star")
    _require_count(n_regular, "n_regular", players=True)
    if n_regular < 1:
        raise ValueError("n_regular must be at least 1")
    f = params.n_fake
    lo, entries = _pmf_window(n_regular, p_star)
    weights = np.zeros(f + 2)
    head = entries[: max(f + 1 - lo, 0)]
    weights[lo : lo + head.size] = head
    if tail is TailMode.FULL:
        weights[f + 1] = entries[head.size :].sum()
    return weights


def _net(p_star: float, n_regular: int, params: FakeGameParams, tail: TailMode):
    # the net as mix's (gains, degree), its turnout built once
    return _net_gains(_turnout(p_star, n_regular, params, tail), params), params.n_fake - 1


def expected_fake_payoffs(
    x_f,
    p_star: float,
    n_regular: int,
    params: FakeGameParams,
    tail: TailMode = TailMode.FULL,
) -> PayoffPair:
    """Average the payoffs over M ~ Binomial(n_regular, p_star), at x_f
    or at each x_f of an array.

    p_star is the regular agents' volunteering probability, normally
    their stable equilibrium. See TailMode for the averaging range.
    Under FULL, p_star = 1.0 and n_regular = r give a known turnout r >= 1.
    """
    x_f = require_probability(x_f, "x_f")
    weights = _turnout(p_star, n_regular, params, tail)
    v, d = mix(_gains(weights, params), params.n_fake - 1, x_f)
    return PayoffPair(v, d, v - d)


def expected_net_payoff_fake(
    x_f,
    p_star: float,
    n_regular: int,
    params: FakeGameParams,
    tail: TailMode = TailMode.FULL,
) -> float:
    """Net gain from joining the push rather than sitting out; zero at
    the fake side's mixed equilibria.

    It mixes the net's own gain sequence, the volunteer's gains minus the
    defector's, so it agrees with expected_fake_payoffs(...).net to
    rounding, not bit for bit.
    """
    x_f = require_probability(x_f, "x_f")
    return mix(*_net(p_star, n_regular, params, tail), x_f)[0]
