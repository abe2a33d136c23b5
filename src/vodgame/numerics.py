"""Binomial pmf rows, binomial mixtures and tails, and a deterministic
bracketing root finder.

mix averages gain sequences against Binomial(n, x) pmf rows for a whole
array of x at once. Tail probabilities are summed on the side of the
distribution that carries less mass and complemented, so each (below,
at-or-above) pair sums to 1.0 exactly.
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
    "mix",
    "binomial_tail",
    "binomial_tail_pair",
    "find_brackets",
    "refine_root",
    "slope_at",
]

# pmf entries built at once (512 KB): a few grid points' rows at moderate
# n, a piece of one row at large n, so no temporary grows with n or the grid
_BLOCK_ENTRIES = 1 << 16


def require_probability(value, name: str = "probability"):
    """Validate value as a probability in [0, 1] and return it as a
    float, or a numpy array of them as a float array.

    NaN, negatives, and anything above 1 are rejected with ValueError.
    """
    if isinstance(value, np.ndarray):
        v = value.astype(np.float64, copy=False)
        ok = np.all((v >= 0.0) & (v <= 1.0))
    else:
        v = float(value)
        ok = 0.0 <= v <= 1.0
    if not ok:
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
    lg = gammaln(np.arange(1.0, n + 2.0))  # log m! for m = 0..n
    row = gammaln(n + 1.0) - lg - lg[::-1]
    row.setflags(write=False)
    return row


def _pmf_block(n: int, xs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # Binomial(n, x) pmf at m = lo..hi-1 for each x of a checked 1-d array
    m = np.arange(lo, min(hi, n + 1), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.multiply.outer(np.log(xs), m)
        block += _log_choose_row(n)[lo:hi]
        block += np.multiply.outer(np.log1p(-xs), n - m)
    np.exp(block, out=block)
    block[np.isnan(block)] = 1.0  # 0 * log(0) at x = 0 or 1: 0^0 = 1
    return block


def pmf_row(n: int, x: float) -> np.ndarray:
    """Binomial(n, x) pmf over m = 0..n as a read-only vector."""
    row = _pmf_block(n, np.array([require_probability(x, "x")]), 0, n + 1)[0]
    row.setflags(write=False)
    return row


def mix(gains, xs) -> np.ndarray:
    """sum_m g[m] * P[M = m] for M ~ Binomial(n, x), for each gain
    sequence g over m = 0..n in gains, at every x in xs; the result has
    shape (len(gains),) + np.shape(xs).

    It is summed as g[-1] + sum_m (g[m] - g[-1]) * P[M = m]. At n = 10^6
    a pmf row's mass misses 1 by up to 5e-10; a plain sum passes that on
    in full, this one weighs it by each gain's distance from the last,
    the regular game's gain once the quorum is met, where the mass sits.
    """
    flat = np.ravel(require_probability(xs, "x"))
    n = len(gains[0]) - 1
    out = np.zeros((len(gains), flat.size))
    step = max(1, _BLOCK_ENTRIES // (n + 1))
    for i in range(0, flat.size, step):
        for lo in range(0, n + 1, _BLOCK_ENTRIES):
            block = _pmf_block(n, flat[i : i + step], lo, lo + _BLOCK_ENTRIES)
            for k, g in enumerate(gains):
                # summed row by row, unlike a matrix product, so a point's
                # value does not depend on the other points in its block
                offsets = g[lo : lo + _BLOCK_ENTRIES] - g[-1]
                out[k, i : i + step] += (block * offsets).sum(axis=1)
    out += np.array([[g[-1]] for g in gains])
    return out.reshape((len(gains),) + np.shape(xs))


def binomial_tail_pair(n: int, lo: int, x: float) -> tuple[float, float]:
    """(P[M < lo], P[M >= lo]) for M ~ Binomial(n, x).

    The light side (at most half the mass, judged by the mean n*x) is
    summed term by term with math.fsum and the heavy side is its exact
    complement. lo <= 0 and lo > n give exact (0, 1) and (1, 0).
    """
    row = pmf_row(n, x)
    if lo <= 0:
        return 0.0, 1.0
    if lo > n:
        return 1.0, 0.0
    if lo <= n * x:
        below = math.fsum(row[:lo])
        return below, 1.0 - below
    above = math.fsum(row[lo:])
    return 1.0 - above, above


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


def _scan(f: Callable, grid_points: int) -> tuple[np.ndarray, list[Bracket]]:
    # f on the uniform grid over [0, 1], and the brackets find_brackets describes
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(0.0, 1.0, grid_points)
    ys = np.broadcast_to(np.asarray(f(xs), dtype=np.float64), xs.shape)
    nan = np.isnan(ys)
    if nan.any():
        raise ValueError(f"f returned NaN at x={float(xs[nan.argmax()])!r}")
    sign = np.sign(ys)
    brackets = []
    for i in np.flatnonzero((sign == 0.0) | np.append(sign[:-1] * sign[1:] < 0.0, False)):
        j = i if sign[i] == 0.0 else i + 1  # an exact zero is its own bracket
        brackets.append(Bracket(float(xs[i]), float(xs[j]), float(ys[i]), float(ys[j])))
    return ys, brackets


def find_brackets(f: Callable, grid_points: int = 2048) -> list[Bracket]:
    """Scan f on a uniform grid over [0, 1] and collect root brackets.

    f is called once, on the whole grid array, and returns one value
    per grid point (or one value for all of them). Adjacent grid pairs
    with a strict sign change become brackets, and grid values that are
    exactly zero become width-0 degenerate brackets. A NaN from f raises
    ValueError; brackets come back in ascending order.
    """
    return _scan(f, grid_points)[1]


def refine_root(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-10) -> float:
    """Shrink a bracket by bisection until its width is at most tol.

    Deterministic, never evaluates outside the bracket, and returns the
    final midpoint (or the exact zero if one is hit). Degenerate
    brackets are already roots.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
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
