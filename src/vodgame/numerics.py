"""Binomial mass/tail kernels and a deterministic bracketing root finder.

Everything here works on plain floats over the unit interval. Tail
probabilities are accumulated from the side of the distribution that
carries less mass, then complemented, so small tails keep full relative
precision and large tails keep full absolute precision and each
(below, at-or-above) pair sums to 1.0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammaln

__all__ = [
    "Bracket",
    "require_probability",
    "log_binomial_pmf",
    "pmf_row",
    "binomial_tail",
    "binomial_tail_pair",
    "find_brackets",
    "refine_root",
    "slope_at",
]


def require_probability(value: float, name: str = "probability") -> float:
    """Validate value as a probability in [0, 1] and return it as a float.

    NaN, negatives, and anything above 1 are rejected with ValueError.
    """
    v = float(value)
    if math.isnan(v) or v < 0.0 or v > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def log_binomial_pmf(n: int, m: int, x: float) -> float:
    """log P[M = m] for M ~ Binomial(n, x).

    Edge cases are exact rather than produced by 0 * log(0): at x = 0
    the mass sits entirely on m = 0, at x = 1 entirely on m = n, and
    the log is 0.0 there and -inf elsewhere (the 0^0 = 1 convention).
    The lgamma form keeps n around 10^6 finite in log space.
    """
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    x = require_probability(x, "x")
    if x == 0.0:
        return 0.0 if m == 0 else -math.inf
    if x == 1.0:
        return 0.0 if m == n else -math.inf
    log_choose = (
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    )
    return log_choose + m * math.log(x) + (n - m) * math.log1p(-x)


@lru_cache(maxsize=32)
def _log_choose_row(n: int) -> np.ndarray:
    m = np.arange(n + 1, dtype=np.float64)
    row = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
    row.setflags(write=False)
    return row


def pmf_row(n: int, x: float) -> np.ndarray:
    """Binomial(n, x) pmf over m = 0..n as a read-only vector."""
    x = require_probability(x, "x")
    if x == 0.0 or x == 1.0:
        row = np.zeros(n + 1, dtype=np.float64)
        row[0 if x == 0.0 else n] = 1.0
    else:
        m = np.arange(n + 1, dtype=np.float64)
        row = np.exp(_log_choose_row(n) + m * math.log(x) + (n - m) * math.log1p(-x))
    row.setflags(write=False)
    return row


def _tail_pair(row: np.ndarray, lo: int, x: float) -> tuple[float, float]:
    # binomial_tail_pair on a prebuilt Binomial(len(row) - 1, x) row
    n = len(row) - 1
    if lo <= 0:
        return 0.0, 1.0
    if lo > n:
        return 1.0, 0.0
    if lo <= n * x:
        below = math.fsum(row[:lo])
        return below, 1.0 - below
    above = math.fsum(row[lo:])
    return 1.0 - above, above


def binomial_tail_pair(n: int, lo: int, x: float) -> tuple[float, float]:
    """(P[M < lo], P[M >= lo]) for M ~ Binomial(n, x).

    The light side (at most half the mass, judged by the mean n*x) is
    summed term by term with math.fsum and the heavy side is its exact
    complement. lo <= 0 and lo > n give exact (0, 1) and (1, 0).
    """
    return _tail_pair(pmf_row(n, x), lo, x)


def binomial_tail(n: int, lo: int, x: float) -> float:
    """P[M >= lo] for M ~ Binomial(n, x)."""
    return binomial_tail_pair(n, lo, x)[1]


@dataclass(frozen=True)
class Bracket:
    """Interval with recorded endpoint values, straddling a root.

    Two valid shapes: a strict sign change (lo < hi and f_lo, f_hi of
    opposite nonzero sign) or a degenerate exact zero (lo == hi and
    both values 0.0).
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.f_lo) or math.isnan(self.f_hi):
            raise ValueError("bracket endpoint values must not be NaN")
        if self.lo == self.hi:
            if self.f_lo != 0.0 or self.f_hi != 0.0:
                raise ValueError("degenerate bracket requires f == 0 at the point")
        elif self.lo < self.hi:
            straddles = (self.f_lo < 0.0 < self.f_hi) or (self.f_hi < 0.0 < self.f_lo)
            if not straddles:
                raise ValueError("bracket endpoint values must have opposite signs")
        else:
            raise ValueError("need lo <= hi")

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


def _scan(f: Callable[[float], float], grid_points: int) -> tuple[np.ndarray, list[float]]:
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(0.0, 1.0, grid_points)
    ys: list[float] = []
    for x in xs:
        y = float(f(float(x)))
        if math.isnan(y):
            raise ValueError(f"f returned NaN at x={float(x)!r}")
        ys.append(y)
    return xs, ys


def _brackets_from_scan(xs: np.ndarray, ys: list[float]) -> list["Bracket"]:
    out: list[Bracket] = []
    for i in range(len(ys) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if y0 == 0.0:
            out.append(Bracket(float(xs[i]), float(xs[i]), 0.0, 0.0))
        elif (y0 < 0.0 < y1) or (y1 < 0.0 < y0):
            out.append(Bracket(float(xs[i]), float(xs[i + 1]), y0, y1))
    if ys[-1] == 0.0:
        out.append(Bracket(float(xs[-1]), float(xs[-1]), 0.0, 0.0))
    return out


def find_brackets(f: Callable[[float], float], grid_points: int = 2048) -> list[Bracket]:
    """Scan f on a uniform grid over [0, 1] and collect root brackets.

    Adjacent grid pairs with a strict sign change become brackets, and
    grid values that are exactly zero become width-0 degenerate
    brackets. A NaN from f raises ValueError; brackets come back in
    ascending order.
    """
    xs, ys = _scan(f, grid_points)
    return _brackets_from_scan(xs, ys)


def refine_root(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-10) -> float:
    """Shrink a bracket by bisection until its width is at most tol.

    Deterministic, never evaluates outside the bracket, and returns the
    final midpoint (or the exact zero if one is hit). Degenerate
    brackets are already roots.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if bracket.degenerate:
        return bracket.lo
    lo, hi, f_lo = bracket.lo, bracket.hi, bracket.f_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval already at float-spacing resolution
        f_mid = float(f(mid))
        if math.isnan(f_mid):
            raise ValueError(f"f returned NaN at x={mid!r}")
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def slope_at(f: Callable[[float], float], x: float, h: float = 1e-6) -> float:
    """Finite-difference slope of f at x without leaving [0, 1].

    Central difference where both offsets fit, one-sided within h of
    either end.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    x = require_probability(x, "x")
    if x - h >= 0.0 and x + h <= 1.0:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if x - h < 0.0:
        return (f(x + h) - f(x)) / h
    return (f(x) - f(x - h)) / h
