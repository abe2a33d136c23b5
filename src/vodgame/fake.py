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

from .numerics import _tail_pair, pmf_row, require_probability
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


def _payoffs_against(
    tail_at, regular_volunteers: int, p: FakeGameParams
) -> tuple[float, float]:
    # volunteer and defector payoffs against a known regular turnout;
    # tail_at(lo) is (P[K < lo], P[K >= lo]) for the co-volunteer count
    # K ~ Binomial(n_fake-1, x_f). A volunteer wins when K + 1 beats the
    # turnout, a defector when K alone does, so the defector against m
    # and the volunteer against m + 1 share a tail
    strict = 1 if p.strict_dominance else 0
    fail, succ = tail_at(max(regular_volunteers - 1 + strict, 0))
    v = succ * (1.0 - p.cost_volunteer_fake) + fail * (
        1.0 - p.cost_volunteer_fake - p.cost_failure
    )
    fail, succ = tail_at(regular_volunteers + strict)
    return v, succ + fail * (1.0 - p.cost_failure)


def _payoffs_at_turnout(
    x_f: float, regular_volunteers: int, params: FakeGameParams
) -> tuple[float, float]:
    x_f = require_probability(x_f, "x_f")
    if regular_volunteers < 0:
        raise ValueError("regular_volunteers must be nonnegative")
    row = pmf_row(params.n_fake - 1, x_f)
    return _payoffs_against(
        lambda lo: _tail_pair(row, lo, x_f), regular_volunteers, params
    )


def avg_payoff_fake_volunteer(
    x_f: float, regular_volunteers: int, params: FakeGameParams
) -> float:
    """Expected payoff of a fake volunteer against a known regular
    turnout, its n_fake-1 peers volunteering independently with
    probability x_f."""
    return _payoffs_at_turnout(x_f, regular_volunteers, params)[0]


def avg_payoff_fake_defector(
    x_f: float, regular_volunteers: int, params: FakeGameParams
) -> float:
    """Expected payoff of a fake-side defector against a known regular
    turnout."""
    return _payoffs_at_turnout(x_f, regular_volunteers, params)[1]


def expected_fake_payoffs(
    x_f: float,
    p_star: float,
    n_regular: int,
    params: FakeGameParams,
    tail: TailMode = TailMode.FULL,
) -> PayoffPair:
    """Average the per-turnout payoffs over M ~ Binomial(n_regular, p_star).

    p_star is the regular agents' volunteering probability, normally
    their stable equilibrium. See TailMode for the averaging range.
    Every turnout above n_fake loses for both roles, so FULL adds the
    mass above n_fake once, at the losing payoffs.
    """
    x_f = require_probability(x_f, "x_f")
    p_star = require_probability(p_star, "p_star")
    if n_regular < 1:
        raise ValueError("n_regular must be at least 1")
    p = params
    weights = pmf_row(n_regular, p_star)
    row = pmf_row(p.n_fake - 1, x_f)
    m_top = min(p.n_fake, n_regular)
    tails = [_tail_pair(row, lo, x_f) for lo in range(m_top + 2)]
    v_terms, d_terms = [], []
    for m in range(m_top + 1):
        v, d = _payoffs_against(tails.__getitem__, m, p)
        v_terms.append(weights[m] * v)
        d_terms.append(weights[m] * d)
    if tail is TailMode.FULL:
        # summed from the row's own entries, not as 1 - P[M <= n_fake]:
        # at n_regular = 10^6 the row's total mass misses 1 by ~3e-10
        above = math.fsum(weights[p.n_fake + 1 :])
        v_terms.append(above * (1.0 - p.cost_volunteer_fake - p.cost_failure))
        d_terms.append(above * (1.0 - p.cost_failure))
    v = math.fsum(v_terms)
    d = math.fsum(d_terms)
    return PayoffPair(v, d, v - d)


def expected_net_payoff_fake(
    x_f: float,
    p_star: float,
    n_regular: int,
    params: FakeGameParams,
    tail: TailMode = TailMode.FULL,
) -> float:
    """Net gain from joining the push rather than sitting out; zero at
    the fake side's mixed equilibria."""
    return expected_fake_payoffs(x_f, p_star, n_regular, params, tail).net
