"""Binomial pmf rows and binomial mixtures.

mix averages gain sequences against Binomial(n, x) pmf rows for a whole
array of x at once; pmf_row is the row at one x.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln

__all__ = ["require_probability", "pmf_row", "mix"]

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
