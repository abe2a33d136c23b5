"""Locate and classify mixed equilibria of a net-payoff curve on [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import require_probability
from .truth import TruthGameParams, net_payoff_regular

__all__ = [
    "STABLE",
    "UNSTABLE",
    "DEGENERATE",
    "Equilibrium",
    "RegimeReport",
    "find_equilibria",
    "stable_equilibrium",
    "sample_curve",
]

STABLE = "stable"
UNSTABLE = "unstable"
DEGENERATE = "degenerate"

_SECTIONS = 16  # a refinement call cuts each open bracket into this many parts
_CUTS = np.arange(_SECTIONS + 1) / _SECTIONS
_SLOPE_STEP = 1e-6  # half-width of the slope's central difference
_SLOPE_EPSILON = 1e-9  # slopes within this times max|net| of 0 classify as degenerate


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
    not affect the regime. peak is (x, net) at the first scan-grid point
    where the net is largest.
    """

    equilibria: tuple[Equilibrium, ...]
    regime: str
    peak: tuple[float, float]


def _values(net_fn: Callable, xs: np.ndarray) -> np.ndarray:
    # net_fn at every x of xs (a scalar result counts for all of them)
    ys = np.broadcast_to(np.asarray(net_fn(xs), dtype=np.float64), xs.shape)
    nan = np.isnan(ys)
    if nan.any():
        raise ValueError(f"net_fn returned NaN at x={float(xs[nan.argmax()])!r}")
    return ys


def find_equilibria(
    net_fn: Callable[[np.ndarray], np.ndarray],
    grid_points: int = 2048,
    tol: float = 1e-10,
) -> RegimeReport:
    """Scan net_fn over [0, 1], refine every sign change to tol by a
    16-way section, and classify each zero by the local slope.

    net_fn is called on float arrays only and returns one value per
    entry (or one value for all): once on the uniform grid, once per
    section step on the 15 inner cut points lo + (hi - lo) * j / 16 of
    every open bracket, and once for all slopes; 8 calls at the
    defaults. Each bracket keeps its first sixteenth whose right end
    has left the left end's sign; a right end that is exactly zero
    closes the bracket on itself. Grid values that are exactly zero are
    roots as they stand. Refinement stops at width tol or at float
    spacing.

    The slope is a central difference at r +- 1e-6, cut at 0 and 1.
    The band is 1e-9 times the largest |net| on the scan grid: below
    -band the root is stable (deviations die out), above +band
    unstable; anything inside the band, and any exact zero at x=0 or
    x=1, is reported as degenerate. The report's peak is read off the
    same grid values.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    xs = np.linspace(0.0, 1.0, grid_points)
    ys = _values(net_fn, xs)
    best = int(ys.argmax())  # the first largest value
    peak = (float(xs[best]), float(ys[best]))
    sign = np.sign(ys)
    left = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    lo, hi = xs[left], xs[left + 1]
    lo_sign = sign[left]
    while True:
        # the midpoint, cut 8 bit for bit: a float lies strictly inside iff it
        # does, and then every step shrinks its bracket
        mid = lo + (hi - lo) * 0.5
        live = np.flatnonzero((hi - lo > tol) & (lo < mid) & (mid < hi))
        if live.size == 0:
            break
        a, b, s = lo[live], hi[live], lo_sign[live]
        cuts = a[:, None] + (b - a)[:, None] * _CUTS
        cuts[:, -1] = b
        side = np.empty((live.size, _SECTIONS))
        side[:, :-1] = np.sign(_values(net_fn, cuts[:, 1:-1].ravel())).reshape(live.size, -1)
        side[:, -1] = -s  # hi is on the other side
        j = (side != s[:, None]).argmax(axis=1)  # first right end off lo's side
        rows = np.arange(live.size)
        right = cuts[rows, j + 1]
        lo[live] = np.where(side[rows, j] == 0.0, right, cuts[rows, j])
        hi[live] = right
    found = np.sort(np.concatenate((xs[sign == 0.0], 0.5 * (lo + hi))))
    roots: list[float] = []
    for r in found.tolist():
        if not roots or abs(r - roots[-1]) >= tol:
            roots.append(r)

    eqs = []
    if roots:
        band = _SLOPE_EPSILON * float(np.abs(ys).max())
        r = np.array(roots)
        below, above = np.maximum(r - _SLOPE_STEP, 0.0), np.minimum(r + _SLOPE_STEP, 1.0)
        ends = _values(net_fn, np.concatenate((below, above)))
        slopes = (ends[r.size :] - ends[: r.size]) / (above - below)
        for x, slope in zip(roots, slopes.tolist()):
            if x == 0.0 or x == 1.0:
                stability = DEGENERATE
            elif slope < -band:
                stability = STABLE
            elif slope > band:
                stability = UNSTABLE
            else:
                stability = DEGENERATE
            eqs.append(Equilibrium(x, slope, stability))

    interior = [e for e in eqs if not (e.x == 0.0 or e.x == 1.0)]
    if interior:
        regime = "mixed"
    elif peak[1] <= 0.0:
        regime = "dominant_defect"
    elif ys.min() >= 0.0:
        regime = "dominant_volunteer"
    else:
        regime = "mixed"
    return RegimeReport(tuple(eqs), regime, peak)


def stable_equilibrium(
    params: TruthGameParams, grid_points: int = 2048, tol: float = 1e-10
) -> float | None:
    """Largest stable volunteering probability of the validation game,
    or None when the game has no stable interior equilibrium."""
    report = find_equilibria(lambda x: net_payoff_regular(x, params), grid_points, tol)
    stable = [e.x for e in report.equilibria if e.stability == STABLE]
    return max(stable) if stable else None


def sample_curve(
    fn: Callable[[np.ndarray], object],
    x_range: tuple[float, float] = (0.0, 1.0),
    points: int = 101,
) -> tuple[np.ndarray, object]:
    """(xs, fn(xs)): the even grid of points over x_range as a float
    array, and what fn returns for it, from one call."""
    lo, hi = x_range
    lo = require_probability(lo, "x_range lower end")
    hi = require_probability(hi, "x_range upper end")
    if not lo < hi:
        raise ValueError("x_range must satisfy lo < hi")
    if points < 2:
        raise ValueError("points must be >= 2")
    xs = np.linspace(lo, hi, points)
    return xs, fn(xs)
