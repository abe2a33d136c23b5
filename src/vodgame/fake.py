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

from .numerics import _pmf_window, mix, require_probability
from .truth import PayoffPair

__all__ = [
    "FakeGameParams",
    "TailMode",
    "individual_payoff_fake",
    "avg_payoff_fake_volunteer",
    "avg_payoff_fake_defector",
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
        for name in ("cost_volunteer_fake", "cost_failure"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_fake < 1:
            raise ValueError("n_fake must be at least 1")
        if self.cost_volunteer_fake <= 0.0:
            raise ValueError("cost_volunteer_fake must be positive")
        if self.cost_volunteer_fake >= self.cost_failure:
            raise ValueError("cost_volunteer_fake must be below cost_failure")


def _wins(fake_volunteers: int, regular_volunteers: int, strict: bool) -> bool:
    if strict:
        return fake_volunteers > regular_volunteers
    return fake_volunteers >= regular_volunteers


def individual_payoff_fake(
    fake_volunteers_total: int,
    regular_volunteers: int,
    volunteered: bool,
    params: FakeGameParams,
) -> float:
    """Payoff of one fake-side agent given both realized counts."""
    p = params
    if not 0 <= fake_volunteers_total <= p.n_fake:
        raise ValueError("fake_volunteers_total must lie in 0..n_fake")
    if regular_volunteers < 0:
        raise ValueError("regular_volunteers must be nonnegative")
    if volunteered and fake_volunteers_total < 1:
        raise ValueError("a volunteering agent implies fake_volunteers_total >= 1")
    success = _wins(fake_volunteers_total, regular_volunteers, p.strict_dominance)
    if volunteered:
        return (
            1.0 - p.cost_volunteer_fake
            if success
            else 1.0 - p.cost_volunteer_fake - p.cost_failure
        )
    return 1.0 if success else 1.0 - p.cost_failure


def _gains(weights: np.ndarray, p: FakeGameParams):
    # mix's gains callable for the volunteer and defector over the focal
    # agent's 0..n_fake-1 volunteering peers, averaged over the regular
    # turnout M ~ weights: P[M = 0..n_fake], then the mass above n_fake
    # that the total counts (0.0 under TRUNCATED). Every M above n_fake
    # loses for both roles. The gains are built when mix calls for them,
    # so a subnormal weight underflows under mix's np.errstate
    f = p.n_fake

    def gains(m: np.ndarray) -> np.ndarray:
        # below[i] = P[M < i] over M = 0..n_fake, for i = 0..n_fake + 1 at least
        below = np.cumsum(np.concatenate(([0.0], weights[: f + 1], np.zeros(f + 1))))
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


def _gains_against(regular_volunteers: int, p: FakeGameParams):
    # _gains for a known turnout, from one-hot weights whose last entry
    # stands for every turnout above n_fake
    if regular_volunteers < 0:
        raise ValueError("regular_volunteers must be nonnegative")
    weights = np.zeros(p.n_fake + 2)
    weights[min(regular_volunteers, p.n_fake + 1)] = 1.0
    return _gains(weights, p)


def avg_payoff_fake_volunteer(
    x_f, regular_volunteers: int, params: FakeGameParams
) -> float:
    """Expected payoff of a fake volunteer against a known regular
    turnout, its n_fake-1 peers volunteering independently with
    probability x_f (a float or an array of them)."""
    return mix(_gains_against(regular_volunteers, params), params.n_fake - 1, x_f)[0]


def avg_payoff_fake_defector(
    x_f, regular_volunteers: int, params: FakeGameParams
) -> float:
    """Expected payoff of a fake-side defector against a known regular
    turnout."""
    return mix(_gains_against(regular_volunteers, params), params.n_fake - 1, x_f)[1]


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
    """
    p_star = require_probability(p_star, "p_star")
    if n_regular < 1:
        raise ValueError("n_regular must be at least 1")
    # P[M = 0..n_fake] and, under FULL, the mass above, read from M's
    # Bernstein window alone. The mass is summed rather than taken as
    # 1 - kept: a pmf row's mass misses 1 by ~3e-10 at n_regular = 10^6
    f = params.n_fake
    lo, entries = _pmf_window(n_regular, p_star)
    weights = np.zeros(f + 2)
    head = entries[: max(f + 1 - lo, 0)]
    weights[lo : lo + head.size] = head
    if tail is TailMode.FULL:
        weights[f + 1] = entries[head.size :].sum()
    v, d = mix(_gains(weights, params), f - 1, x_f)
    return PayoffPair(v, d, v - d)


def expected_net_payoff_fake(
    x_f,
    p_star: float,
    n_regular: int,
    params: FakeGameParams,
    tail: TailMode = TailMode.FULL,
) -> float:
    """Net gain from joining the push rather than sitting out; zero at
    the fake side's mixed equilibria."""
    return expected_fake_payoffs(x_f, p_star, n_regular, params, tail).net
