"""Binomial pmf rows and binomial mixtures.

mix averages gain sequences against Binomial(n, x) pmf rows for a whole
array of x at once; pmf_row is the row at one x.

One threshold decides which pmf entries exist: an entry whose log pmf is
below _FLOOR = log 2^-1022 = -708.396..., the log of the smallest normal
double, reads 0.0 everywhere, in pmf_row, in the fake side's turnout
weights and in mix's sums, and exp runs only on the others. Below the
threshold exp's result is subnormal or 0.0, and a subnormal one costs
over 100 times an ordinary entry. Such an entry times a gain g is below
2^-1022 |g|, and a term that small changes a float sum only where the sum
is below 2^-968 |g| ~ 4e-292 |g| in magnitude, so a payoff could move
only that close to 0: sums of O(1) gains cannot see it.

From n = 1024 on, both build a row's entries only inside its Bernstein
window, the counts m with |m - nx| < t, t = T/3 + sqrt(T^2/9 + 2T nx(1-x)),
T = 1 - _FLOOR = 709.396... Bernstein's inequality puts at most e^-T of
the Binomial(n, x) mass past t on each side, so every entry out there has
a log pmf below _FLOOR - 1 and would read 0.0 anyway: the margin of 1 is
far above the log pmf's rounding error, near 1e-7 at n = 10^6. Shorter
rows, at most one tile of mix's sums, are built whole: at n = 100 the
window arithmetic costs more than the entries it skips. Inside a window,
tile rounding and the bound's slack still leave entries below the
threshold (31% of those built for a 2048-point grid at n = 10^4), which
skip exp.

mix works through its points in blocks, as many points as 2^16 entries of
whole rows hold (one from n = 2^15 on), each block over the tile-aligned
union of its points' windows, in a workspace it allocates once per call,
sized for the widest block: one float buffer takes a block's log pmf and
then the block's products with every gain sequence, one takes the pmf,
and a boolean one marks the entries exp runs on. Per block, one multiply
forms the products of all sequences, one reduce sums every full tile of
1024 counts and one more a partial last tile, and the tile sums are added
in count order: the same sums, in the same order, as a loop over tiles
and sequences. No array mix or pmf_row returns shares memory with the
workspace.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

__all__ = ["require_probability", "pmf_row", "mix"]

# whole-row pmf entries a block of mix's points holds (512 KB), so no
# temporary grows with the grid; _log_factorials works in blocks of it too
_BLOCK_ENTRIES = 1 << 16
_TILE = 1 << 10  # aligned counts that mix sums as one piece; see mix
# pmf entries with a log below it read 0.0; it also sets the windows' bound
_FLOOR = math.log(sys.float_info.min)
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


def _require_count(value, name: str) -> None:
    # a count or a seed must be a nonnegative int or numpy integer; a bool
    # or a float, even a whole one, is rejected where it enters
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


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


def _pmf_block(n: int, xs: np.ndarray, lo: int, hi: int, out, log, mask) -> np.ndarray:
    # Binomial(n, x) pmf at m = lo..hi-1 for each x of a checked 1-d array,
    # written to out and returned, under its caller's np.errstate(**_BY_DESIGN);
    # log and mask are work arrays of out's shape. exp runs only on the
    # entries whose log reaches _FLOOR, the others are +0.0
    m = np.arange(lo, hi, dtype=np.float64)
    np.multiply(np.maximum(np.log(xs), _LOG0)[:, None], m, out=log)
    log += _log_choose_row(n)[lo:hi]
    log += np.multiply(np.maximum(np.log1p(-xs), _LOG0)[:, None], n - m, out=out)
    out.fill(0.0)
    return np.exp(log, out=out, where=np.greater_equal(log, _FLOOR, out=mask))


def _windows(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # first and end (exclusive) count of each x's Bernstein window for
    # T = 1 - _FLOOR; flooring keeps every m within t of nx, as the bounds
    # are off by far less than 1
    tail = 1.0 - _FLOOR
    nx = n * xs
    t = tail / 3 + np.sqrt(tail**2 / 9 + 2 * tail * nx * (1.0 - xs))
    return np.maximum(nx - t, 0.0).astype(int), np.minimum(nx + t, n).astype(int) + 1


@np.errstate(**_BY_DESIGN)
def _pmf_window(n: int, x: float) -> tuple[int, np.ndarray]:
    # first count lo and the Binomial(n, x) pmf entries from lo on inside
    # x's Bernstein window; below one tile of counts the whole row
    xs = np.array([require_probability(x, "x")])
    lo, hi = 0, n + 1
    if n >= _TILE:
        (lo,), (hi,) = _windows(n, xs)
    shape = (1, hi - lo)
    bufs = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    entries = _pmf_block(n, xs, lo, hi, *bufs)
    return lo, entries[0]


def pmf_row(n: int, x: float) -> np.ndarray:
    """Binomial(n, x) pmf over m = 0..n as a read-only vector; n >= 0.

    An entry below 2^-1022 reads 0.0 (see the module docstring). From
    n = 1024 on only the entries inside x's Bernstein window are
    computed, and the row is those entries written into zeros; the
    payoff functions read the window alone.
    """
    _require_count(n, "n")
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
    a point's value does not depend on the other points in xs. Entries
    below 2^-1022 read 0.0 and add 0.0 too, as in pmf_row (see the module
    docstring for why no sum can see them). A block's products with all
    sequences are formed and its tiles summed in one pass each, in a
    workspace allocated once per call (see the module docstring).

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
        width = n + 1
    else:
        firsts, ends = _windows(n, flat)
        firsts = np.minimum.reduceat(firsts, starts) // _TILE * _TILE
        ends = np.minimum(-(-np.maximum.reduceat(ends, starts) // _TILE) * _TILE, n + 1)
        # the counts in the union of the blocks' spans, then n for g[n]
        runs = []
        width = 0  # the widest span
        for first, end in sorted(zip(firsts.tolist(), ends.tolist())):
            width = max(width, end - first)
            if runs and first <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], end)
            else:
                runs.append([first, end])
        m = np.concatenate([np.arange(a, min(b, n)) for a, b in runs] + [[n]])
        spans = zip(firsts.tolist(), ends.tolist(), np.searchsorted(m, firsts).tolist())
    g = gains(m)
    offsets = g - g[:, -1:]
    seqs = len(g)
    out = np.zeros((seqs, flat.size))
    # the workspace, sized for the largest block: the log pmf and then the
    # products of every sequence, the pmf, and the mask of the logs exp sees
    shape = (min(step, flat.size), width)
    work, pmf, mask = np.empty((seqs,) + shape), np.empty(shape), np.empty(shape, bool)
    for i, (first, end, col) in zip(starts, spans):
        pts = flat[i : i + step]
        rows = out[:, i : i + step]
        npts, w = pts.size, end - first
        block = _pmf_block(n, pts, first, end, pmf[:npts, :w], work[0, :npts, :w], mask[:npts, :w])
        prods = np.multiply(block, offsets[:, None, col : col + w], out=work[:, :npts, :w])
        full = w // _TILE * _TILE
        if full:
            tiles = np.add.reduce(prods[:, :, :full].reshape(seqs, npts, -1, _TILE), 3)
            for sums in tiles.transpose(2, 0, 1):
                rows += sums
        if full < w:
            rows += np.add.reduce(prods[:, :, full:], 2)
    out += g[:, -1:]
    return out.reshape((seqs,) + xs.shape)
