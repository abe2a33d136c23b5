"""Binomial pmf rows and binomial mixtures.

mix averages gain sequences against Binomial(n, x) pmf rows for a whole
array of x at once; pmf_row is the row at one x.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["require_probability", "pmf_row", "mix"]

# pmf entries built at once (512 KB): a few grid points' rows at moderate
# n, a piece of one row at large n, so no temporary grows with n or the grid
_BLOCK_ENTRIES = 1 << 16

# log Gamma(x) ~ (x - 1/2) log x - x + log sqrt(2 pi) + P(1/x^2) / x, with
# the coefficients of P of the Cephes lgam behind scipy.special.gammaln,
# whose rows these match bit for bit up to n = 1000
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


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


def _log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0..n: exact factorials up to m = 12, the Stirling
    series above, built in blocks so no temporary grows with n."""
    out = np.empty(n + 1)
    exact = min(n, 12) + 1
    out[:exact] = np.log([float(math.factorial(m)) for m in range(exact)])
    for lo in range(13, n + 1, _BLOCK_ENTRIES):
        x = np.arange(lo + 1.0, min(lo + _BLOCK_ENTRIES, n + 1) + 1.0)  # m + 1
        p = 1.0 / (x * x)
        series = np.full_like(x, _STIRLING[0])
        for c in _STIRLING[1:]:
            series *= p
            series += c
        out[lo : lo + x.size] = (x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI + series / x
    return out


@lru_cache(maxsize=32)
def _log_choose_row(n: int) -> np.ndarray:
    lg = _log_factorials(n)
    row = lg[-1] - lg - lg[::-1]
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
    """Binomial(n, x) pmf over m = 0..n as a read-only vector; n >= 0."""
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n!r}")
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
