"""Validation backends: seeded Monte Carlo and exact profile enumeration.

Monte Carlo determinism contract
--------------------------------
Draws come from numpy's PCG64, a named, documented, portable 64-bit
generator. Trials are split into fixed chunks of 65536; chunk i uses
PCG64 seeded with SeedSequence((seed, i)). Chunk statistics are merged
in index order, so a result depends only on (seed, trials), never on
how chunks might be scheduled across workers. Within a trial the focal
volunteer and the focal defector are evaluated on the same draw
(common random numbers), which makes the estimated net difference much
tighter than two independent runs would be.

Exact enumeration iterates every co-player volunteer/defect profile as
a bit pattern and weights it by x^v * (1-x)^(peers-v) directly, with no
binomial shortcuts, so it is an independent check on the analytic
averages (practical for n_regular <= 16).

Both backends score a count with the same per-game rule
(_truth_payoffs, _fake_payoffs), written from the games' definitions
and never through the binomial-mixture kernel they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fake import FakeGameParams, _wins
from .numerics import _require_count, require_probability
from .truth import PayoffPair, TruthGameParams

__all__ = [
    "SimResult",
    "simulate_truth",
    "simulate_fake",
    "enumerate_truth_exact",
    "enumerate_fake_exact",
    "CHUNK_TRIALS",
]

CHUNK_TRIALS = 65536


@dataclass(frozen=True)
class SimResult:
    volunteer_avg_hat: float
    defector_avg_hat: float
    volunteer_se: float
    defector_se: float
    trials: int
    seed: int


class _RunningMean:
    """Combine per-chunk (count, mean, sum of squared deviations) in a
    fixed order; numerically stable for long runs."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_chunk(self, values: np.ndarray) -> None:
        n_b = values.size
        vmin = float(values.min())
        vmax = float(values.max())
        if vmin == vmax:
            # constant chunk: keep the mean exact and the spread at true zero
            mean_b = vmin
            m2_b = 0.0
        else:
            mean_b = float(values.mean())
            m2_b = float(((values - mean_b) ** 2).sum())
        n_a = self.count
        total = n_a + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / total
        self.m2 += m2_b + delta * delta * n_a * n_b / total
        self.count = total

    @property
    def se(self) -> float:
        if self.count < 2 or self.m2 <= 0.0:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def _simulate(draw, trials: int, seed: int) -> SimResult:
    # draw(rng, size) returns the volunteer and defector payoff arrays of
    # one chunk; every chunk is scored and merged in index order
    _require_count(trials, "trials")
    _require_count(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    vol = _RunningMean()
    dfc = _RunningMean()
    for i, size in enumerate(_chunk_sizes(trials)):
        pay_v, pay_d = draw(_chunk_rng(seed, i), size)
        vol.add_chunk(pay_v)
        dfc.add_chunk(pay_d)
    return SimResult(vol.mean, dfc.mean, vol.se, dfc.se, trials, seed)


def _truth_payoffs(co_volunteers: np.ndarray, params: TruthGameParams):
    # payoffs of a focal volunteer and a focal defector whose co-players
    # hold co_volunteers volunteers, shared-reward transfers included
    p = params
    pay_v = np.where(
        co_volunteers + 1 >= p.threshold,
        (1.0 - p.cost_volunteer)
        + p.shared_reward / (co_volunteers + 1.0)
        - p.shared_reward / p.n_regular,
        1.0 - p.cost_volunteer - p.cost_failure,
    )
    pay_d = np.where(
        co_volunteers >= p.threshold,
        1.0 - p.shared_reward / p.n_regular,
        1.0 - p.cost_failure,
    )
    return pay_v, pay_d


def _fake_payoffs(peers: np.ndarray, turnout, params: FakeGameParams):
    # payoffs of a focal fake volunteer and defector whose peers hold
    # peers volunteers against a regular turnout, ties as in _wins
    p = params
    pay_v = np.where(
        _wins(peers + 1, turnout, p.strict_dominance),
        1.0 - p.cost_volunteer_fake,
        1.0 - p.cost_volunteer_fake - p.cost_failure,
    )
    pay_d = np.where(_wins(peers, turnout, p.strict_dominance), 1.0, 1.0 - p.cost_failure)
    return pay_v, pay_d


def simulate_truth(
    params: TruthGameParams, x: float, trials: int, seed: int = 0
) -> SimResult:
    """Monte Carlo estimate of the average volunteer and defector
    payoffs of the validation game at mixing x.

    Each trial draws the focal agent's n_regular - 1 co-players'
    volunteer count (binomially, equivalent to independent Bernoulli(x)
    decisions) and scores a focal volunteer and a focal defector
    against that same draw, shared-reward transfers included.
    """
    x = require_probability(x, "x")
    n_co = params.n_regular - 1
    return _simulate(
        lambda rng, size: _truth_payoffs(rng.binomial(n_co, x, size=size), params),
        trials,
        seed,
    )


def simulate_fake(
    p_star: float,
    n_regular: int,
    params: FakeGameParams,
    x_f: float,
    trials: int,
    seed: int = 0,
) -> SimResult:
    """Monte Carlo estimate of the fake side's average payoffs.

    Each trial draws the regular turnout M ~ Binomial(n_regular, p_star)
    and the focal agent's n_fake - 1 peers' volunteer count, then scores
    a focal volunteer and defector on the same draw. This estimates the
    full average over M (the TailMode.FULL expectation).
    """
    p_star = require_probability(p_star, "p_star")
    x_f = require_probability(x_f, "x_f")
    _require_count(n_regular, "n_regular")
    if n_regular < 1:
        raise ValueError("n_regular must be at least 1")

    def draw(rng: np.random.Generator, size: int):
        # turnout before peers: the draw order fixes every seeded result
        turnout = rng.binomial(n_regular, p_star, size=size)
        peers = rng.binomial(params.n_fake - 1, x_f, size=size)
        return _fake_payoffs(peers, turnout, params)

    return _simulate(draw, trials, seed)


def _enumerate(peers: int, x: float, payoffs) -> PayoffPair:
    # weight every profile of `peers` co-players, as the bit pattern
    # 0 .. 2^peers - 1 whose popcount v is its volunteer count, by
    # x^v (1-x)^(peers-v) and average payoffs(v) over them
    v = np.zeros(1, dtype=np.int64)
    if peers:
        patterns = np.arange(2**peers, dtype="<u4")
        bits = np.unpackbits(patterns.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little")
        v = bits[:, :peers].sum(axis=1).astype(np.int64)
    w = np.power(x, v) * np.power(1.0 - x, peers - v)
    pay_v, pay_d = payoffs(v)
    pv = float(w @ pay_v)
    pd = float(w @ pay_d)
    return PayoffPair(pv, pd, pv - pd)


def enumerate_truth_exact(params: TruthGameParams, x: float) -> PayoffPair:
    """Average payoffs of the validation game by explicit enumeration of
    all 2^(n_regular - 1) co-player profiles. Practical for
    n_regular <= 16."""
    x = require_probability(x, "x")
    if params.n_regular > 16:
        raise ValueError("exact enumeration supports n_regular <= 16")
    return _enumerate(params.n_regular - 1, x, lambda v: _truth_payoffs(v, params))


def enumerate_fake_exact(
    params: FakeGameParams, regular_volunteers: int, x_f: float
) -> PayoffPair:
    """Average fake-side payoffs against a known regular turnout by
    explicit enumeration of all 2^(n_fake - 1) peer profiles."""
    x_f = require_probability(x_f, "x_f")
    _require_count(regular_volunteers, "regular_volunteers")
    if params.n_fake > 16:
        raise ValueError("exact enumeration supports n_fake <= 16")
    return _enumerate(
        params.n_fake - 1, x_f, lambda v: _fake_payoffs(v, regular_volunteers, params)
    )
