"""Tests for the binomial kernels and the root finder in find_equilibria.

The pmf checks are anchored to exact rational arithmetic (exact_binomial),
so nothing here trusts lgamma to check lgamma; the log-factorial series
behind the rows is checked against the standard library's math.lgamma.
"""

import decimal
import math

import numpy as np
import pytest
from exact_binomial import exact_pmf

from vodgame import numerics
from vodgame.equilibrium import DEGENERATE, UNSTABLE, find_equilibria
from vodgame.numerics import (
    _log_choose_row,
    _log_factorials,
    _windows,
    mix,
    pmf_row,
    require_probability,
)


def _bits(values):
    # a float array's bit patterns, so that -0.0 and 0.0 differ
    return np.ascontiguousarray(values).view(np.int64)


def _exp_on_every_entry(pmf_block):
    # pmf_block with _FLOOR at -inf while it runs, so exp sees every entry
    # it builds; the windows, which _FLOOR also sets, keep their bound
    def run(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_FLOOR", -np.inf)
            return pmf_block(*args)

    return run


# ---------------------------------------------------------------- log m!


def test_log_factorials_are_exact_up_to_12():
    got = _log_factorials(12)
    for m in range(13):
        assert got[m] == math.log(math.factorial(m))


def test_log_factorials_match_lgamma_up_to_a_million():
    """The series agrees with math.lgamma at sampled m, including where
    it takes over (13) and the seam between its first two blocks."""
    fixed = [13, 14, 100, 999, 1000, 13 + 2**16 - 1, 13 + 2**16, 10**6 - 1, 10**6]
    sampled = np.random.default_rng(0).integers(13, 10**6, size=2000).tolist()
    got = _log_factorials(10**6)
    for m in fixed + sampled:
        want = math.lgamma(m + 1)
        assert abs(got[m] - want) <= 1e-15 * want, m


@pytest.mark.parametrize("n", [0, 1, 12, 13])
def test_log_factorial_rows_have_n_plus_one_entries(n):
    assert _log_factorials(n).shape == (n + 1,)
    assert pmf_row(n, 0.5).shape == (n + 1,)


# ---------------------------------------------------------------- pmf


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_log_pmf_matches_exact_rationals(x):
    """pmf_row agrees with big-integer rationals to 1e-12 relative."""
    for n in range(31):
        want = [float(exact_pmf(n, m, x)) for m in range(n + 1)]
        np.testing.assert_allclose(pmf_row(n, x), want, rtol=1e-12, atol=0.0)


def test_log_pmf_spot_value_against_rationals():
    got = pmf_row(99, 0.09)[9]
    want = float(exact_pmf(99, 9, 0.09))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "n,m,x,expected",
    [
        (10, 0, 0.0, 0.0),
        (10, 3, 0.0, -math.inf),
        (10, 10, 1.0, 0.0),
        (10, 2, 1.0, -math.inf),
        (0, 0, 0.0, 0.0),
        (0, 0, 1.0, 0.0),
    ],
)
def test_log_pmf_degenerate_endpoints_are_exact(n, m, x, expected):
    """At x = 0 or 1 the whole mass sits on one count (0^0 = 1), exactly."""
    assert pmf_row(n, x)[m] == math.exp(expected)


def test_log_pmf_large_n_stays_finite():
    """The central entry of an n = 10^6 row against C(n, n/2) / 2^n,
    taken as a 40-digit product of (2j-1)/(2j); the lgamma difference
    behind the row loses ~7e-10 of relative precision here."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = math.prod(decimal.Decimal(2 * j - 1) / (2 * j) for j in range(1, 500_001))
    got = pmf_row(10**6, 0.5)[500_000]
    assert math.isfinite(got)
    assert got == pytest.approx(float(want), rel=1e-8)


@pytest.mark.parametrize("n", [-1, -3])
def test_pmf_row_rejects_negative_n(n):
    with pytest.raises(ValueError):
        pmf_row(n, 0.5)


@pytest.mark.parametrize("n", [100.0, True])
def test_pmf_row_rejects_n_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        pmf_row(n, 0.5)


def test_log_pmf_rejects_bad_probability():
    with pytest.raises(ValueError):
        pmf_row(5, 1.5)
    with pytest.raises(ValueError):
        pmf_row(5, math.nan)


def test_pmf_normalizes_for_all_n_up_to_200():
    """Each pmf row sums to 1 within 1e-12, n <= 200, x on 0.01 steps."""
    for n in range(201):
        for xi in range(101):
            x = xi / 100.0
            total = math.fsum(pmf_row(n, x))
            assert abs(total - 1.0) <= 1e-12, (n, x, total)


def test_pmf_row_matches_scalar_function():
    """pmf_row against exact rationals, endpoints included."""
    for n in (0, 1, 7, 60):
        for x in (0.0, 0.3, 1.0):
            want = [float(exact_pmf(n, m, x)) for m in range(n + 1)]
            np.testing.assert_allclose(pmf_row(n, x), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [496, 497, 498, 1023, 1024, 10**4, 2 * 10**5 + 3, 10**6])
def test_pmf_row_window_drops_only_exact_zeros(n):
    """From n = 1024 on pmf_row builds only the entries inside each x's
    Bernstein window; every row is bitwise the whole-row formula wherever
    that is at least 2^-1022 and +0.0 elsewhere, so the window leaves out
    only entries that would read 0.0."""
    m = np.arange(n + 1.0)
    for x in (0.0, 1.0, 5e-324, 1e-9, 5e-6, 0.3, 0.5, 1.0 - 1e-7):
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            log_x, log_1mx = np.log([x]), np.log1p([-x])
            whole = np.exp((m * log_x + _log_choose_row(n)) + (n - m) * log_1mx)
        whole[np.isnan(whole)] = 1.0  # 0^0 = 1 at x = 0 or 1
        row = pmf_row(n, x)
        normal = whole >= np.finfo(float).tiny
        assert np.array_equal(row[normal], whole[normal]), x
        assert not _bits(row[~normal]).any(), x  # +0.0, not -0.0


def test_pmf_row_is_read_only():
    row = pmf_row(12, 0.4)
    with pytest.raises(ValueError):
        row[0] = 2.0


def test_arrays_spanning_several_blocks_match_single_points():
    """Every point of an array equals its own single-float evaluation
    bit for bit: on an evenly spaced grid that spans many pmf blocks,
    and on a shuffled array whose points near 0, 0.5 and 1 share a block
    but need different pmf tiles. An empty array gives empty arrays."""
    from vodgame.fake import FakeGameParams, expected_fake_payoffs
    from vodgame.truth import TruthGameParams, payoff_pair_regular

    mixed = np.array([0.0, 1e-9, 3e-4, 0.01, 0.499, 0.5, 0.502, 0.99, 1 - 3e-4, 1 - 1e-9, 1.0])
    np.random.default_rng(7).shuffle(mixed)
    fake = FakeGameParams(n_fake=10**4)
    for n in (10**4, 2 * 10**5 + 3):
        truth = TruthGameParams(n_regular=n, threshold=60, shared_reward=500.0)
        for pair_at in (
            lambda x: payoff_pair_regular(x, truth),
            lambda x: expected_fake_payoffs(x, 0.3, n, fake),
        ):
            for xs in (np.linspace(0.0, 1.0, 257), mixed):
                arrays = pair_at(xs)
                for i, x in enumerate(xs):
                    one = pair_at(float(x))
                    assert arrays.volunteer_avg[i] == one.volunteer_avg, (n, x)
                    assert arrays.defector_avg[i] == one.defector_avg, (n, x)
                    assert arrays.net[i] == one.net, (n, x)
            empty = pair_at(np.array([]))
            for values in (empty.volunteer_avg, empty.defector_avg, empty.net):
                assert values.shape == (0,)


@pytest.mark.parametrize("n,points", [(10**4, 257), (2 * 10**5 + 3, 5)])
def test_mix_matches_sums_over_whole_pmf_rows(n, points):
    """Block seams, between points at moderate n and within one row at
    large n, leave each mixture equal to its sum over a whole pmf row."""
    gains = np.random.default_rng(n).normal(size=(2, n + 1))
    xs = np.linspace(0.0, 1.0, points)
    got = mix(lambda m: gains[:, m], n, xs)
    for j, x in enumerate(xs):
        row = pmf_row(n, float(x))
        nz = np.flatnonzero(row)  # the exact zeros add nothing to fsum
        for k, g in enumerate(gains):
            assert abs(got[k, j] - (g[-1] + math.fsum(row[nz] * (g[nz] - g[-1])))) <= 1e-13


@pytest.mark.parametrize("n", [99, 1023, 10**4, 2 * 10**5 + 3, 10**6, 4 * 10**6 + 1])
def test_mix_adds_tile_sums_in_count_order(n):
    """mix sums every aligned tile of 1024 counts on its own and adds the
    tile sums in count order, for every sequence alike: exactly the loop
    below over whole pmf rows, also for windows of more than 8 tiles and,
    at n = 4*10^6 + 1 and x = 0.5, for one of more than 2^16 counts."""
    gains = np.random.default_rng(n).normal(size=(2, n + 1))
    xs = np.array([0.5]) if n > 10**6 else np.array([0.0, 3e-5, 0.31, 0.5, 0.97, 1.0])
    got = mix(lambda m: gains[:, m], n, xs)
    offsets = gains - gains[:, -1:]
    tiles = [slice(t, t + numerics._TILE) for t in range(0, n + 1, numerics._TILE)]
    for j, x in enumerate(xs):
        row = pmf_row(n, float(x))
        for k, g in enumerate(gains):
            total = 0.0
            for tile in tiles:
                total += np.add.reduce(row[tile] * offsets[k, tile])
            assert total + g[-1] == got[k, j], (x, k)


def test_workspace_fits_the_blocks_a_call_builds():
    """mix sizes its workspace from the largest block the call builds: a
    1-point call at n = 10^6 builds about a thousand counts, so it never
    holds a buffer of the 2^16 entries a block may have."""
    import tracemalloc

    from vodgame.truth import TruthGameParams, net_payoff_regular

    params = TruthGameParams(n_regular=10**6, threshold=60, shared_reward=500.0)
    net_payoff_regular(6e-5, params)  # caches the row of log C(n, m)
    tracemalloc.start()
    try:
        net_payoff_regular(6e-5, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < numerics._BLOCK_ENTRIES * 8


def test_mix_reads_gains_once_inside_its_windows():
    """mix asks its gains callable once per call: at large n only for the
    tile-rounded windows of its points followed by n, below one tile for
    the whole row, so no call costs O(n) in the gains."""

    def recording(n):
        asked = []

        def gains(m):
            asked.append(m)
            return np.vstack([m / n])  # E[M / n] = x

        return asked, gains

    n, tile = 10**6, 1024
    for x in (0.0, 8e-6, 4e-5, 0.3, 1.0):
        asked, gains = recording(n)
        got = mix(gains, n, x)
        (m,) = asked
        (lo,), (hi,) = _windows(n, np.array([x]))
        window = min(-(-hi // tile) * tile, n + 1) - lo // tile * tile
        assert m.size <= window + 1, x
        assert m[-1] == n and np.all(np.diff(m) > 0), x
        assert abs(got[0] - x) <= 1e-8, x
    asked, gains = recording(10**4)
    mix(gains, 10**4, np.linspace(0.0, 1.0, 2048))
    assert len(asked) == 1
    asked, gains = recording(100)
    mix(gains, 100, np.array([0.2, 0.7]))
    (m,) = asked
    assert np.array_equal(m, np.arange(101))


@pytest.mark.parametrize("n", [7, 99, 1023, 10**4, 2 * 10**5 + 3, 10**6])
def test_skipping_exp_below_the_floor_changes_no_bit(n, monkeypatch):
    """exp runs only on pmf entries whose log reaches _FLOOR, in mix and
    in the turnout weights alike. With _FLOOR at -inf in _pmf_block every
    entry it builds goes through exp, and both games' pairs and nets keep
    every bit, on arrays shuffled across pmf blocks."""
    from vodgame.fake import FakeGameParams, expected_fake_payoffs, expected_net_payoff_fake
    from vodgame.truth import TruthGameParams, net_payoff_regular, payoff_pair_regular

    values = [0.0, 5e-324, 1e-9, 3e-4, 0.5, 1 - 1e-7, 1.0]
    size = 2 * numerics._BLOCK_ENTRIES // (n + 1) + len(values)
    xs = np.random.default_rng(n).permutation(np.resize(values, size))
    truth = TruthGameParams(n_regular=n, threshold=6)
    fake = FakeGameParams()

    def evaluate():
        pairs = [payoff_pair_regular(xs, truth)]
        pairs += [expected_fake_payoffs(xs, p, n, fake) for p in values]
        payoffs = [v for p in pairs for v in (p.volunteer_avg, p.defector_avg, p.net)]
        payoffs += [net_payoff_regular(xs, truth)]
        payoffs += [expected_net_payoff_fake(xs, p, n, fake) for p in values]
        return payoffs

    skipped = evaluate()
    monkeypatch.setattr(numerics, "_pmf_block", _exp_on_every_entry(numerics._pmf_block))
    for got, want in zip(evaluate(), skipped, strict=True):
        assert np.array_equal(_bits(got), _bits(want))


def test_mix_drops_only_subnormal_pmf_entries(monkeypatch):
    """mix runs exp only where its result is a normal float: on the
    2048-point grid at n = 10^4 every pmf block it builds holds exp's bits
    wherever exp gives at least 2^-1022, and exactly 0.0 elsewhere."""
    from vodgame.truth import TruthGameParams, net_payoff_regular

    real = numerics._pmf_block
    dropped = []

    def spy(n, xs, lo, hi, out, log, mask):
        block = real(n, xs, lo, hi, out, log, mask)
        shape = block.shape
        bufs = np.empty(shape), np.empty(shape), np.empty(shape, bool)
        every = _exp_on_every_entry(real)(n, xs, lo, hi, *bufs)
        normal = every >= np.finfo(float).tiny
        assert np.array_equal(_bits(block[normal]), _bits(every[normal]))
        assert not _bits(block[~normal]).any()  # +0.0, not -0.0
        dropped.append(np.count_nonzero(every[~normal]))
        return block

    monkeypatch.setattr(numerics, "_pmf_block", spy)
    params = TruthGameParams(n_regular=10**4 + 1, threshold=60, shared_reward=500.0)
    net_payoff_regular(np.linspace(0.0, 1.0, 2048), params)
    assert sum(dropped) > 0  # some entries were subnormal, so the check bit


@pytest.mark.parametrize("n", [7, 99, 10**4, 10**6])
def test_kernel_ignores_its_own_underflow_when_numpy_raises(n):
    """log 0, m * log 0 and the underflow of exp and of products with
    subnormal entries happen by design. Under np.errstate(all="raise")
    the kernel and both games return the same bits as by default."""
    from vodgame.fake import FakeGameParams, expected_fake_payoffs
    from vodgame.truth import TruthGameParams, payoff_pair_regular

    xs = np.array([0.0, 5e-324, 3e-5, 0.5, 1.0])
    truth = TruthGameParams(n_regular=n, threshold=6)
    peers = FakeGameParams(n_fake=n + 1)  # n volunteering peers, against a turnout of 3

    def evaluate():
        out = [payoff_pair_regular(xs, truth).net]
        out.append(expected_fake_payoffs(xs, 1.0, 3, peers).volunteer_avg)
        for x in xs:
            out.append(pmf_row(n, x))
            out.append(payoff_pair_regular(x, truth).net)
            out.append(expected_fake_payoffs(xs, x, n, FakeGameParams()).net)
            out.append(expected_fake_payoffs(x, 1.0, 3, peers).volunteer_avg)
        return out

    plain = evaluate()
    with np.errstate(all="raise"):
        raising = evaluate()
    for got, want in zip(raising, plain, strict=True):
        assert np.array_equal(_bits(got), _bits(want))


def test_fake_gains_underflow_inside_the_kernel():
    """At n_regular = 1030 and p* = 0.5 the turnout weight P[M = 0] =
    2^-1030 is below 2^-1022 and reads 0.0, and the fake side's gains
    scale the tiny weights next to it; mix builds those gains under its
    own np.errstate, so numpy raising stays quiet."""
    from vodgame.fake import FakeGameParams, expected_fake_payoffs

    assert _bits(pmf_row(1030, 0.5))[0] == 0  # +0.0
    xs = np.array([0.0, 0.5, 1.0])
    plain = expected_fake_payoffs(xs, 0.5, 1030, FakeGameParams())
    with np.errstate(all="raise"):
        raising = expected_fake_payoffs(xs, 0.5, 1030, FakeGameParams())
    assert np.array_equal(_bits(raising.net), _bits(plain.net))


_NET_XS = np.array([0.0, 5e-324, 1e-9, 3e-5, 0.06, 0.5, 1 - 1e-7, 1.0])


@pytest.mark.parametrize("n", [2, 7, 100, 10**4, 10**6])
def test_net_functions_agree_with_pair_net(n):
    """Both nets mix their own gain sequence, volunteer minus defector
    gains, so they match the pair's net to rounding, not bit for bit:
    within 1e-15 for ties and strict dominance, both tails and p* from 0
    to 1. The regular net at x = 0 stays exactly -cost_volunteer, and
    neither net trips numpy set to raise."""
    from vodgame.fake import (
        FakeGameParams,
        TailMode,
        expected_fake_payoffs,
        expected_net_payoff_fake,
    )
    from vodgame.truth import TruthGameParams, net_payoff_regular, payoff_pair_regular

    xs = _NET_XS if n == 10**6 else np.concatenate((_NET_XS, np.linspace(0.0, 1.0, 513)))
    truth = TruthGameParams(n_regular=n, threshold=min(6, n))
    with np.errstate(all="raise"):
        gap = net_payoff_regular(xs, truth) - payoff_pair_regular(xs, truth).net
        assert np.abs(gap).max() <= 1e-15
        assert net_payoff_regular(0.0, truth) == -truth.cost_volunteer
        for p_star in (0.0, 5e-6, 0.06, 1.0):
            for params in (FakeGameParams(), FakeGameParams(strict_dominance=True)):
                for tail in TailMode:
                    net = expected_net_payoff_fake(xs, p_star, n, params, tail)
                    pair = expected_fake_payoffs(xs, p_star, n, params, tail)
                    assert np.abs(net - pair.net).max() <= 1e-15, (p_star, params, tail)


@pytest.mark.parametrize("n", [7, 10**4])
def test_results_share_no_memory(n):
    """mix reuses one workspace per call; nothing it or pmf_row returns
    lives in it, so two results taken in a row are separate arrays."""
    first, second = pmf_row(n, 0.3), pmf_row(n, 0.6)
    assert not np.shares_memory(first, second)

    def gains(m):
        return np.vstack((np.ones(m.size), m))

    xs = np.linspace(0.0, 1.0, 9)
    first, second = mix(gains, n, xs), mix(gains, n, xs[::-1])
    assert not np.shares_memory(first, second)
    assert np.array_equal(first[:, ::-1], second)


# ---------------------------------------------------------------- validation


def test_require_probability_accepts_unit_interval():
    assert require_probability(0.0) == 0.0
    assert require_probability(1.0) == 1.0
    assert require_probability(0.25, "x") == 0.25


@pytest.mark.parametrize("bad", [-0.1, 1.0000001, math.nan, math.inf])
def test_require_probability_rejects(bad):
    with pytest.raises(ValueError):
        require_probability(bad)


# ---------------------------------------------------------------- bracketing
#
# The grid scan, bisection and slopes all live in find_equilibria, which
# calls the curve on float arrays only.


def roots(f, **kwargs):
    return [e.x for e in find_equilibria(f, **kwargs).equilibria]


def test_find_brackets_linear():
    report = find_equilibria(lambda x: x - 0.3, grid_points=64)
    (e,) = report.equilibria
    assert 18 / 63 <= e.x <= 19 / 63
    assert e.x == pytest.approx(0.3, abs=1e-10)
    assert e.stability == UNSTABLE


def test_find_brackets_constant_sign_yields_none():
    assert find_equilibria(lambda x: 1.0 + x, grid_points=32).equilibria == ()
    # a constant callable may return one scalar for the whole array
    assert find_equilibria(lambda x: -0.5, grid_points=32).equilibria == ()


def test_find_brackets_exact_grid_zero_is_degenerate():
    # grid {0, 0.25, 0.5, 0.75, 1} hits the root of x - 0.25 exactly
    assert roots(lambda x: x - 0.25, grid_points=5) == [0.25]


def test_find_brackets_two_roots_ascending():
    f = lambda x: (x - 0.2) * (x - 0.7)  # noqa: E731
    found = roots(f, grid_points=256)
    assert found == pytest.approx([0.2, 0.7], abs=1e-10)
    assert found[0] < found[1]
    # roots closer together than tol are reported once, at the lower one
    (merged,) = roots(f, grid_points=256, tol=0.6)
    assert merged == pytest.approx(0.2, abs=1 / 255)


def test_find_brackets_rejects_nan():
    with pytest.raises(ValueError):
        find_equilibria(lambda x: math.nan, grid_points=16)
    # finite on the grid, NaN at the first bisection midpoint
    f = lambda x: x - 0.3 if x.size == 16 else np.full(x.shape, math.nan)  # noqa: E731
    with pytest.raises(ValueError):
        find_equilibria(f, grid_points=16)


def test_find_brackets_rejects_tiny_grid():
    for grid_points in (1, 0):
        with pytest.raises(ValueError):
            find_equilibria(lambda x: x, grid_points=grid_points)


# ---------------------------------------------------------------- refinement


def test_refine_root_linear():
    (r,) = roots(lambda x: x - 1.0 / 3.0, grid_points=128, tol=1e-12)
    assert r == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_refine_root_classic_dilemma_closed_form():
    # alpha*(1-x)^(n-1) - c with n=100, c=0.5, alpha=0.9
    f = lambda x: 0.9 * (1.0 - x) ** 99 - 0.5  # noqa: E731
    (r,) = roots(f, grid_points=2048, tol=1e-12)
    assert r == pytest.approx(1.0 - (0.5 / 0.9) ** (1.0 / 99.0), abs=1e-10)


def test_refine_root_degenerate_bracket_returns_point():
    # grid {0, 0.25, 0.5, 0.75, 1}: the first midpoint of [0.25, 0.5] is the root
    assert roots(lambda x: x - 0.375, grid_points=5) == [0.375]


@pytest.mark.parametrize(
    "f",
    [
        lambda x: x**3 - 0.2,
        lambda x: np.cos(3.0 * x) - 0.4,
        lambda x: 0.9 * (1.0 - x) ** 99 - 0.5,
    ],
)
def test_refine_root_lands_inside_and_below_endpoint_values(f):
    """Each root sits between its neighbouring grid points with |f| no
    worse than at either of them."""
    xs = np.linspace(0.0, 1.0, 512)
    found = roots(f, grid_points=512, tol=1e-10)
    assert found
    for r in found:
        i = int(np.searchsorted(xs, r))
        lo, hi = xs[i - 1], xs[i]
        assert lo <= r <= hi
        f_r, f_lo, f_hi = np.abs(f(np.array([r, lo, hi])))
        assert f_r <= f_lo
        assert f_r <= f_hi


def test_refine_root_rejects_nonpositive_tol():
    for tol in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_equilibria(lambda x: 2.0 * x - 1.0, tol=tol)


# ---------------------------------------------------------------- slopes


def test_slope_of_linear_function():
    (e,) = find_equilibria(lambda x: 3.0 * x - 1.5).equilibria
    assert e.slope == pytest.approx(3.0, abs=1e-6)


def test_slope_of_constant_is_zero():
    # an identically zero curve: every grid point is a root with slope 0
    report = find_equilibria(lambda x: 0.0, grid_points=5)
    assert [e.x for e in report.equilibria] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(e.slope == 0.0 for e in report.equilibria)
    assert all(e.stability == DEGENERATE for e in report.equilibria)


def test_slope_one_sided_at_domain_ends():
    # each root lies within the 1e-6 difference step of 0 or 1
    for shift in (0.0, 1e-7, 3.0 - 1e-7, 3.0):
        (e,) = find_equilibria(lambda x: 3.0 * x - shift).equilibria
        assert min(e.x, 1.0 - e.x) < 1e-6
        assert e.slope == pytest.approx(3.0, abs=1e-6)


def test_slope_negative_at_larger_equilibrium_of_payoff_curve():
    from vodgame.truth import TruthGameParams, net_payoff_regular

    params = TruthGameParams()
    report = find_equilibria(lambda x: net_payoff_regular(x, params))
    assert len(report.equilibria) == 2
    assert report.equilibria[-1].slope < 0.0
