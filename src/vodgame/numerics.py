"""Binomial pmf rows and binomial mixtures.

mix averages gain sequences against Binomial(n, x) pmf rows for a whole
array of x at once; pmf_row is the row at one x.

From n = 1024 on, both build a row's entries only inside its Bernstein
window, the counts m with |m - nx| < t, t = T/3 + sqrt(T^2/9 + 2T nx(1-x)),
T = 746. Bernstein's inequality puts at most e^-T of the Binomial(n, x)
mass past t on each side, so every entry out there has a log pmf below
-746 and its exp is exactly 0.0, as exp underflows below -745.13 and the
log pmf's rounding error stays near 1e-7 at n = 10^6. Shorter rows, at
most one tile of mix's sums, are built whole: at n = 100 the window
arithmetic costs more than the entries it skips.

Inside a window, tile rounding and the bound's slack still leave entries
whose log pmf is below -746 (31% of those built for a 2048-point grid at
n = 10^4). exp is evaluated only where the log is at least -746, which
covers every entry it can make non-zero, and 0.0 is written elsewhere:
there exp returns exactly 0.0, at over ten times the cost of an ordinary
entry. Subnormal entries, logs in [-745.13, -708.4], still go through
exp, so every entry is bitwise what exp gives when it runs on all.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

__all__ = ["require_probability", "pmf_row", "mix"]

# pmf entries built at once (512 KB): a few grid points' rows at moderate
# n, a piece of one row at large n, so no temporary grows with n or the grid
_BLOCK_ENTRIES = 1 << 16
_TILE = 1 << 10  # aligned counts that mix sums as one piece; see mix
_TAIL = 746.0  # -log of the pmf mass left out past each end of a window
_EXP_FLOOR = -_TAIL  # pmf entries with a log below it are 0.0, exp's value there
_LOG0 = -sys.float_info.max  # log 0 in _pmf_block: finite, so 0 * log 0 is 0
# the floating-point events the kernel raises by design: log 0, m * log 0
# overflowing to -inf, and exp and the products of tiny entries underflowing
_BY_DESIGN = {"divide": "ignore", "over": "ignore", "under": "ignore"}

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
        ok = ((v >= 0.0) & (v <= 1.0)).all()
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
    # Binomial(n, x) pmf at m = lo..hi-1 for each x of a checked 1-d array,
    # under its caller's np.errstate(**_BY_DESIGN); exp runs only on the
    # entries whose log reaches _EXP_FLOOR, as below it exp returns 0.0
    m = np.arange(lo, min(hi, n + 1), dtype=np.float64)
    block = np.maximum(np.log(xs), _LOG0)[:, None] * m
    block += _log_choose_row(n)[lo:hi]
    block += np.maximum(np.log1p(-xs), _LOG0)[:, None] * (n - m)
    return np.exp(block, out=np.zeros(block.shape), where=block >= _EXP_FLOOR)


def _windows(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # first and end (exclusive) count of each x's Bernstein window; floor
    # keeps every m within t of nx, as the bounds are off by far less than 1
    nx = n * xs
    t = _TAIL / 3 + np.sqrt(_TAIL**2 / 9 + 2 * _TAIL * nx * (1.0 - xs))
    return np.maximum(nx - t, 0.0).astype(int), np.minimum(nx + t, n).astype(int) + 1


@np.errstate(**_BY_DESIGN)
def _pmf_window(n: int, x: float) -> tuple[int, np.ndarray]:
    # first count lo and the Binomial(n, x) pmf entries from lo on inside
    # x's Bernstein window; below one tile of counts the whole row
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n!r}")
    xs = np.array([require_probability(x, "x")])
    lo, hi = 0, n + 1
    if n >= _TILE:
        (lo,), (hi,) = _windows(n, xs)
    return lo, _pmf_block(n, xs, lo, hi)[0]


def pmf_row(n: int, x: float) -> np.ndarray:
    """Binomial(n, x) pmf over m = 0..n as a read-only vector; n >= 0.

    From n = 1024 on only the entries inside x's Bernstein window (see
    the module docstring) are computed, and the row is those entries
    written into zeros; the payoff functions read the window alone.
    """
    lo, entries = _pmf_window(n, x)
    row = np.zeros(n + 1)
    row[lo : lo + entries.size] = entries
    row.setflags(write=False)
    return row


@np.errstate(**_BY_DESIGN)
def mix(gains, n: int, xs) -> np.ndarray:
    """sum_m g[m] * P[M = m] for M ~ Binomial(n, x), for each gain
    sequence g over m = 0..n, at every x in xs; the result has shape
    (number of sequences,) + np.shape(xs).

    gains(m) takes a sorted int array of counts and returns a 2-D array
    with one row per gain sequence, the gains at those counts. mix calls
    it once per call: from n = 1024 on for the counts its pmf blocks
    cover followed by n, below that for the whole row 0..n.

    It is summed as g[n] + sum_m (g[m] - g[n]) * P[M = m]. At n = 10^6
    a pmf row's mass misses 1 by up to 5e-10; a plain sum passes that on
    in full, this one weighs it by each gain's distance from the last,
    the regular game's gain once the quorum is met, where the mass sits.

    The pmf entries are built only inside the Bernstein windows (see the
    module docstring) of each block's points, rounded out to aligned tiles
    of counts. Each tile is summed on its own, row by row, and the tiles
    are added in count order; a tile outside a point's window adds 0.0, so
    a point's value does not depend on the other points in xs.

    The kernel's log 0, its m * log 0 overflowing to -inf and the
    underflow of exp and of products with tiny entries are by design: mix
    and pmf_row ignore them under one np.errstate per call, so a caller's
    np.errstate(all="raise") does not stop them.
    """
    xs = np.asarray(require_probability(xs, "x"))
    flat = xs.ravel()
    step = max(1, _BLOCK_ENTRIES // (n + 1))
    starts = range(0, flat.size, step)
    # each block's first count, end count and column of its first count in g
    if n < _TILE:  # below one tile of counts every block covers the whole row
        m = np.arange(n + 1)
        spans = [(0, n + 1, 0)] * len(starts)
    else:
        firsts, ends = _windows(n, flat)
        firsts = np.minimum.reduceat(firsts, starts) // _TILE * _TILE
        ends = np.minimum(-(-np.maximum.reduceat(ends, starts) // _TILE) * _TILE, n + 1)
        # the counts in the union of the blocks' spans, then n for g[n]
        runs = []
        for first, end in sorted(zip(firsts.tolist(), ends.tolist())):
            if runs and first <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], end)
            else:
                runs.append([first, end])
        m = np.concatenate([np.arange(a, min(b, n)) for a, b in runs] + [[n]])
        spans = zip(firsts.tolist(), ends.tolist(), np.searchsorted(m, firsts).tolist())
    g = gains(m)
    offsets = g - g[:, -1:]
    out = np.zeros((len(g), flat.size))
    for i, (first, end, col) in zip(starts, spans):
        pts = slice(i, i + step)
        rows = out[:, pts]
        for lo in range(first, end, _BLOCK_ENTRIES):
            hi = min(lo + _BLOCK_ENTRIES, end)
            block = _pmf_block(n, flat[pts], lo, hi)
            gks = offsets[:, col + lo - first : col + hi - first]
            for t in range(0, hi - lo, _TILE):
                tile = slice(t, t + _TILE)
                part = block[:, tile]
                for gk, sums in zip(gks[:, tile], rows):
                    sums += np.add.reduce(part * gk, 1)
    out += g[:, -1:]
    return out.reshape((len(g),) + xs.shape)
