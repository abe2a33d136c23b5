"""Locate and classify mixed equilibria of a net-payoff curve on [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import _scan, refine_root, require_probability, slope_at
from .truth import PayoffPair, TruthGameParams, net_payoff_regular

__all__ = [
    "STABLE",
    "UNSTABLE",
    "DEGENERATE",
    "Equilibrium",
    "RegimeReport",
    "CurveSample",
    "find_equilibria",
    "stable_equilibrium",
    "sample_curve",
]

STABLE = "stable"
UNSTABLE = "unstable"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Equilibrium:
    x: float
    slope: float
    stability: str


@dataclass(frozen=True)
class RegimeReport:
    """Equilibria of one curve plus the overall shape of the game.

    regime is "mixed" when interior equilibria exist, otherwise
    "dominant_defect" (net negative throughout the scan grid) or
    "dominant_volunteer" (net positive throughout). Exact zeros sitting
    on the interval ends are reported as degenerate equilibria and do
    not affect the regime. endpoint_signs holds sign(net) at x=0 and
    x=1 as -1/0/+1.
    """

    equilibria: tuple[Equilibrium, ...]
    regime: str
    endpoint_signs: tuple[int, int]


@dataclass(frozen=True)
class CurveSample:
    """Parallel sequences sampled from one model: xs, both average
    payoffs, and their difference."""

    xs: tuple[float, ...]
    volunteer_avg: tuple[float, ...]
    defector_avg: tuple[float, ...]
    net: tuple[float, ...]


def find_equilibria(
    net_fn: Callable,
    grid_points: int = 2048,
    tol: float = 1e-10,
    *,
    slope_epsilon: float = 1e-9,
    slope_step: float = 1e-6,
) -> RegimeReport:
    """Scan net_fn over [0, 1], refine every bracketed zero, and
    classify each by the local slope.

    The scan calls net_fn once on the whole grid array; refinement and
    slopes call it on single floats, so it must accept both.

    Slope below -slope_epsilon means stable (deviations die out),
    above +slope_epsilon unstable; anything inside the band, and any
    exact zero at x=0 or x=1, is reported as degenerate.
    """
    ys, brackets = _scan(net_fn, grid_points)
    roots: list[float] = []
    for bracket in brackets:
        r = refine_root(net_fn, bracket, tol)
        if roots and abs(r - roots[-1]) < tol:
            continue
        roots.append(r)

    eqs = []
    for r in roots:
        slope = slope_at(net_fn, r, slope_step)
        if r == 0.0 or r == 1.0:
            stability = DEGENERATE
        elif slope < -slope_epsilon:
            stability = STABLE
        elif slope > slope_epsilon:
            stability = UNSTABLE
        else:
            stability = DEGENERATE
        eqs.append(Equilibrium(r, slope, stability))

    interior = [e for e in eqs if not (e.x == 0.0 or e.x == 1.0)]
    if interior:
        regime = "mixed"
    elif ys.max() <= 0.0:
        regime = "dominant_defect"
    elif ys.min() >= 0.0:
        regime = "dominant_volunteer"
    else:
        regime = "mixed"
    return RegimeReport(tuple(eqs), regime, (int(np.sign(ys[0])), int(np.sign(ys[-1]))))


def stable_equilibrium(
    params: TruthGameParams, grid_points: int = 2048, tol: float = 1e-10
) -> float | None:
    """Largest stable volunteering probability of the validation game,
    or None when the game has no stable interior equilibrium."""
    report = find_equilibria(lambda x: net_payoff_regular(x, params), grid_points, tol)
    stable = [e.x for e in report.equilibria if e.stability == STABLE]
    return max(stable) if stable else None


def sample_curve(
    pair_fn: Callable[[np.ndarray], PayoffPair],
    x_range: tuple[float, float] = (0.0, 1.0),
    points: int = 101,
) -> CurveSample:
    """Evaluate pair_fn once, on an even grid array over x_range; each
    field of the PayoffPair it returns holds one value per point or one for all."""
    lo, hi = x_range
    lo = require_probability(lo, "x_range lower end")
    hi = require_probability(hi, "x_range upper end")
    if not lo < hi:
        raise ValueError("x_range must satisfy lo < hi")
    if points < 2:
        raise ValueError("points must be >= 2")
    xs = np.linspace(lo, hi, points)
    pair = pair_fn(xs)
    columns = (xs, pair.volunteer_avg, pair.defector_avg, pair.net)
    return CurveSample(*(tuple(np.broadcast_to(c, xs.shape).tolist()) for c in columns))
