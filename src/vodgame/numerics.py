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
skip exp. The log C(n, m) the entries take is built and cached in blocks
of 2^16 counts, only the blocks a call reads, so a window at n = 10^6
builds one or two 512 KB blocks, not the 8 MB row.

mix works through its points in blocks, as many points as 2^16 entries of
whole rows hold (one from n = 2^15 on; below one tile of counts, entries
times sequences, so a batch of sequences takes no larger workspace than
one), each block over the tile-aligned union of its points' windows, in a
workspace it allocates once per call, sized for the widest block: one
float buffer takes a block's log pmf and then the block's products with
every gain sequence, one takes the pmf, and a boolean one marks the
entries exp runs on. Per block, one multiply forms the products of all
sequences, one reduce sums every full tile of 1024 counts and one more a
partial last tile, and the tile sums are added in count order: the same
sums, in the same order, as a loop over tiles and sequences. No array mix
or pmf_row returns shares memory with the workspace.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

__all__ = ["require_probability", "pmf_row", "mix"]

# whole-row pmf entries (times sequences below one tile) a block of mix's
# points holds (512 KB), so no temporary grows with the grid; n's row of
# log C(n, m) is built and cached in blocks of it too, and only the blocks
# a call reads
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


def _require_count(value, name: str, players: bool = False) -> None:
    # a count or a seed must be a nonnegative int or numpy integer; a bool
    # or a float, even a whole one, is rejected where it enters. Players are
    # at most 2^53, past which the kernel's float64 counts are not exact
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    if players and value > 2**53:
        raise ValueError(f"{name} must be at most 2**53, got {value!r}")


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """log m! for m = lo..hi-1: exact factorials up to m = 12, the Stirling
    series above, built in blocks so no temporary grows with hi - lo."""
    out = np.empty(hi - lo)
    exact = range(lo, min(hi, 13))
    out[: len(exact)] = np.log([float(math.factorial(m)) for m in exact])
    for a in range(max(lo, 13), hi, _BLOCK_ENTRIES):
        x = np.arange(a + 1.0, min(a + _BLOCK_ENTRIES, hi) + 1.0)  # m + 1
        p = 1.0 / (x * x)
        series = np.full_like(x, _STIRLING[0])
        for c in _STIRLING[1:]:
            series *= p
            series += c
        out[a - lo : a - lo + x.size] = (x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI + series / x
    return out


@lru_cache(maxsize=32)
def _log_choose_block(n: int, b: int) -> np.ndarray:
    # log C(n, m) = lg[n] - lg[m] - lg[n - m], lg[m] = log m!, for the counts
    # m of block b, read-only
    lo = b * _BLOCK_ENTRIES
    hi = min(lo + _BLOCK_ENTRIES, n + 1)
    block = _log_factorials(n, n + 1)[0] - _log_factorials(lo, hi)
    block -= _log_factorials(n + 1 - hi, n + 1 - lo)[::-1]
    block.setflags(write=False)
    return block


def _add_log_choose(n: int, lo: int, hi: int, log: np.ndarray) -> None:
    # adds log C(n, m), m = lo..hi-1, to each row of log, block by block
    for b in range(lo // _BLOCK_ENTRIES, (hi - 1) // _BLOCK_ENTRIES + 1):
        base = b * _BLOCK_ENTRIES
        a, z = max(lo, base), min(hi, base + _BLOCK_ENTRIES)
        log[:, a - lo : z - lo] += _log_choose_block(n, b)[a - base : z - base]


def _pmf_block(n: int, xs: np.ndarray, lo: int, hi: int, out, log, mask) -> np.ndarray:
    # Binomial(n, x) pmf at m = lo..hi-1 for each x of a checked 1-d array,
    # written to out and returned, under its caller's np.errstate(**_BY_DESIGN);
    # log and mask are work arrays of out's shape. exp runs only on the
    # entries whose log reaches _FLOOR, the others are +0.0
    m = np.arange(lo, hi, dtype=np.float64)
    np.multiply(np.maximum(np.log(xs), _LOG0)[:, None], m, out=log)
    _add_log_choose(n, lo, hi, log)
    log += np.multiply(np.maximum(np.log1p(-xs), _LOG0)[:, None], n - m, out=out)
    out.fill(0.0)
    return np.exp(log, out=out, where=np.greater_equal(log, _FLOOR, out=mask))


def _windows(n: int, xs) -> tuple:
    # first and end (exclusive) count of the Bernstein window for T = 1 - _FLOOR
    # of each x of a checked 1-d array, or of one x as numpy scalars; flooring
    # keeps every m within t of nx, as the bounds are off by far less than 1
    tail = 1.0 - _FLOOR
    nx = n * xs
    t = tail / 3 + np.sqrt(tail**2 / 9 + 2 * tail * nx * (1.0 - xs))
    return np.maximum(nx - t, 0.0).astype(int), np.minimum(nx + t, n).astype(int) + 1


@np.errstate(**_BY_DESIGN)
def _pmf_window(n: int, x: float) -> tuple[int, np.ndarray]:
    # first count lo and the Binomial(n, x) pmf entries from lo on inside
    # x's Bernstein window, x checked by the caller; below a tile, the whole row
    lo, hi = _windows(n, x) if n >= _TILE else (0, n + 1)
    shape = (1, hi - lo)
    bufs = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    entries = _pmf_block(n, np.array([x]), lo, hi, *bufs)
    return lo, entries[0]


def pmf_row(n: int, x: float) -> np.ndarray:
    """Binomial(n, x) pmf over m = 0..n as a read-only vector; n >= 0.

    An entry below 2^-1022 reads 0.0 (see the module docstring). From
    n = 1024 on only the entries inside x's Bernstein window are
    computed, and the row is those entries written into zeros; the
    payoff functions read the window alone.
    """
    _require_count(n, "n", players=True)
    lo, entries = _pmf_window(n, require_probability(x, "x"))
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
    cover followed by n, below that for the whole row 0..n. Each row of
    the result is bitwise that sequence mixed alone.

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
    # each block's first count, end count and column of its first count in g
    if n < _TILE:  # below one tile of counts every block covers the whole row
        g = gains(np.arange(n + 1))
        step = max(1, _BLOCK_ENTRIES // ((n + 1) * len(g)))
        spans = [(0, n + 1, 0)] * -(-flat.size // step)
        width = n + 1
    else:
        step = max(1, _BLOCK_ENTRIES // (n + 1))
        starts = np.arange(0, flat.size, step)
        firsts, ends = _windows(n, flat)
        firsts = np.minimum.reduceat(firsts, starts) & -_TILE  # floored to a tile
        ends = np.minimum((np.maximum.reduceat(ends, starts) + _TILE - 1) & -_TILE, n + 1)
        # the counts in the union of the blocks' spans, then n for g[n]
        runs = []
        width = 0  # the widest span
        for first, end in sorted(zip(firsts.tolist(), ends.tolist())):
            width = max(width, end - first)
            if runs and first <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], end)
            else:
                runs.append([first, end])
        m = np.concatenate([np.arange(a, min(b, n)) for a, b in runs] + [(n,)])
        spans = zip(firsts.tolist(), ends.tolist(), np.searchsorted(m, firsts).tolist())
        g = gains(m)
    offsets = g - g[:, -1:]
    seqs = len(g)
    out = np.zeros((seqs, flat.size))
    # the workspace, sized for the largest block: the log pmf and then the
    # products of every sequence, the pmf, and the mask of the logs exp sees
    shape = (min(step, flat.size), width)
    work, pmf, mask = np.empty((seqs,) + shape), np.empty(shape), np.empty(shape, bool)
    for i, (first, end, col) in zip(range(0, flat.size, step), spans):
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
