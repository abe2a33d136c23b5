"""Root finding and classification on the game's net-payoff curves."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from exact_bernstein import regular_net_coefficients, root_pieces

from vodgame.equilibrium import (
    DEGENERATE,
    STABLE,
    UNSTABLE,
    find_equilibria,
    sample_curve,
    stable_equilibrium,
)
from vodgame.fake import FakeGameParams, TailMode, expected_net_payoff_fake
from vodgame.truth import (
    TruthGameParams,
    net_payoff_regular,
    payoff_pair_regular,
)

BASELINE = TruthGameParams()


def truth_net(params):
    return lambda x: net_payoff_regular(x, params)


# ---------------------------------------------------------------- structure


def test_baseline_has_two_interior_equilibria():
    report = find_equilibria(truth_net(BASELINE))
    assert report.regime == "mixed"
    assert len(report.equilibria) == 2
    lower, upper = report.equilibria
    assert lower.stability == UNSTABLE
    assert lower.slope > 0.0
    assert upper.stability == STABLE
    assert upper.slope < 0.0
    assert 0.07 <= upper.x <= 0.11
    assert report.peak[1] > 0.0


def test_equilibria_sorted_and_separated():
    report = find_equilibria(truth_net(BASELINE), tol=1e-10)
    xs = [e.x for e in report.equilibria]
    assert xs == sorted(xs)
    assert all(b - a >= 1e-10 for a, b in zip(xs, xs[1:]))


def test_returned_points_are_near_zeros():
    report = find_equilibria(truth_net(BASELINE))
    for e in report.equilibria:
        assert abs(net_payoff_regular(e.x, BASELINE)) <= 1e-6


@pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0])
def test_low_reward_means_defection_everywhere(sigma):
    report = find_equilibria(truth_net(TruthGameParams(shared_reward=sigma)))
    assert report.regime == "dominant_defect"
    assert report.equilibria == ()
    # the regime label is backed by the curve itself
    ys = [net_payoff_regular(x, TruthGameParams(shared_reward=sigma))
          for x in np.linspace(0.0, 1.0, 256)]
    assert max(ys) < 0.0


def test_large_quorum_means_defection():
    report = find_equilibria(truth_net(TruthGameParams(threshold=9)))
    assert report.regime == "dominant_defect"


def test_pure_synthetic_curves():
    always_neg = find_equilibria(lambda x: -1.0 - x, grid_points=64)
    assert always_neg.regime == "dominant_defect"
    assert always_neg.peak == (0.0, -1.0)
    always_pos = find_equilibria(lambda x: 0.5 + x, grid_points=64)
    assert always_pos.regime == "dominant_volunteer"


def test_boundary_zero_is_degenerate_not_regime_changing():
    # x * (x - 2) is zero at x=0 and negative inside
    report = find_equilibria(lambda x: x * (x - 2.0), grid_points=128)
    assert len(report.equilibria) == 1
    assert report.equilibria[0].x == 0.0
    assert report.equilibria[0].stability == DEGENERATE
    assert report.regime == "dominant_defect"
    assert report.peak == (0.0, 0.0)


def test_flat_zero_slope_root_is_degenerate():
    report = find_equilibria(lambda x: (x - 0.5) ** 3, grid_points=256)
    inner = [e for e in report.equilibria if e.stability == DEGENERATE]
    assert len(inner) == 1
    assert inner[0].x == pytest.approx(0.5, abs=1e-9)


def test_grid_too_small_rejected():
    with pytest.raises(ValueError, match="grid_points must be >= 2"):
        find_equilibria(lambda x: x - 0.5, grid_points=1)


def roots(f, **kwargs):
    return [e.x for e in find_equilibria(f, **kwargs).equilibria]


def test_linear_root_is_unstable_and_within_its_grid_cell():
    report = find_equilibria(lambda x: x - 0.3, grid_points=64)
    (e,) = report.equilibria
    assert 18 / 63 <= e.x <= 19 / 63
    assert e.x == pytest.approx(0.3, abs=1e-10)
    assert e.stability == UNSTABLE


def test_root_on_a_grid_point_is_taken_as_it_stands():
    # grid {0, 0.25, 0.5, 0.75, 1} hits the root of x - 0.25 exactly
    assert roots(lambda x: x - 0.25, grid_points=5) == [0.25]


def test_two_roots_ascending_and_merged_within_tol():
    f = lambda x: (x - 0.2) * (x - 0.7)  # noqa: E731
    found = roots(f, grid_points=256)
    assert found == pytest.approx([0.2, 0.7], abs=1e-10)
    assert found[0] < found[1]
    # roots closer together than tol are reported once, at the lower one
    (merged,) = roots(f, grid_points=256, tol=0.6)
    assert merged == pytest.approx(0.2, abs=1 / 255)


def test_nan_from_net_fn_rejected():
    with pytest.raises(ValueError):
        find_equilibria(lambda x: math.nan, grid_points=16)
    # finite on the grid, NaN at the cut points of the first section step
    f = lambda x: x - 0.3 if x.size == 16 else np.full(x.shape, math.nan)  # noqa: E731
    with pytest.raises(ValueError):
        find_equilibria(f, grid_points=16)


# ---------------------------------------------------------------- section


def test_bisection_reaches_tol():
    (r,) = roots(lambda x: x - 1.0 / 3.0, grid_points=128, tol=1e-12)
    assert r == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_root_matches_classic_dilemma_closed_form():
    # alpha*(1-x)^(n-1) - c with n=100, c=0.5, alpha=0.9
    f = lambda x: 0.9 * (1.0 - x) ** 99 - 0.5  # noqa: E731
    (r,) = roots(f, grid_points=2048, tol=1e-12)
    assert r == pytest.approx(1.0 - (0.5 / 0.9) ** (1.0 / 99.0), abs=1e-10)


def test_exact_zero_at_a_midpoint_is_the_root():
    # grid {0, 0.25, 0.5, 0.75, 1}: the first midpoint of [0.25, 0.5] is the root
    assert roots(lambda x: x - 0.375, grid_points=5) == [0.375]


def test_tiny_tol_stops_at_float_spacing():
    (r,) = roots(lambda x: x - 1.0 / 3.0, grid_points=128, tol=1e-300)
    assert abs(r - 1.0 / 3.0) <= np.spacing(1.0 / 3.0)


def test_three_roots_in_one_grid_cell_give_one_root_inside_it():
    # grid {0, 0.25, 0.5, 0.75, 1}: all three roots lie in [0.25, 0.5]
    zeros = (0.3, 0.3001, 0.3002)
    f = lambda x: (x - zeros[0]) * (x - zeros[1]) * (x - zeros[2])  # noqa: E731
    (r,) = roots(f, grid_points=5)
    assert 0.25 < r < 0.5
    assert min(abs(r - z) for z in zeros) <= 1e-10


@pytest.mark.parametrize(
    "f",
    [
        lambda x: x**3 - 0.2,
        lambda x: np.cos(3.0 * x) - 0.4,
        lambda x: 0.9 * (1.0 - x) ** 99 - 0.5,
    ],
)
def test_root_lies_in_its_grid_cell_below_the_ends_residuals(f):
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


def test_nonpositive_or_nonfinite_tol_rejected():
    for tol in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            find_equilibria(lambda x: 2.0 * x - 1.0, tol=tol)


# ---------------------------------------------------------------- slopes


def test_slope_of_a_linear_net():
    (e,) = find_equilibria(lambda x: 3.0 * x - 1.5).equilibria
    assert e.slope == pytest.approx(3.0, abs=1e-6)


def test_zero_net_has_a_degenerate_root_at_every_grid_point():
    # an identically zero curve: every grid point is a root with slope 0
    report = find_equilibria(lambda x: 0.0, grid_points=5)
    assert [e.x for e in report.equilibria] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(e.slope == 0.0 for e in report.equilibria)
    assert all(e.stability == DEGENERATE for e in report.equilibria)


def test_slope_band_scales_with_the_net():
    # a transversal root of a net that is tiny everywhere is still unstable
    (e,) = find_equilibria(lambda x: 1e-60 * (x - 0.3), grid_points=64).equilibria
    assert e.slope == pytest.approx(1e-60, rel=1e-6)
    assert e.stability == UNSTABLE


def test_slope_is_one_sided_at_domain_ends():
    # each root lies within the 1e-6 difference step of 0 or 1
    for shift in (0.0, 1e-7, 3.0 - 1e-7, 3.0):
        (e,) = find_equilibria(lambda x: 3.0 * x - shift).equilibria
        assert min(e.x, 1.0 - e.x) < 1e-6
        assert e.slope == pytest.approx(3.0, abs=1e-6)


def test_larger_baseline_root_has_negative_slope():
    report = find_equilibria(truth_net(BASELINE))
    assert len(report.equilibria) == 2
    assert report.equilibria[-1].slope < 0.0


def test_net_fn_is_called_on_arrays_only():
    sizes = []

    def net(x):
        if not isinstance(x, np.ndarray):
            raise TypeError(f"expected an array, got {type(x).__name__}")
        sizes.append(x.size)
        return net_payoff_regular(x, BASELINE)

    report = find_equilibria(net)
    assert report == find_equilibria(truth_net(BASELINE))
    assert [e.stability for e in report.equilibria] == [UNSTABLE, STABLE]
    # one grid call, one call per section step for both roots, one for the slopes
    assert sizes[0] == 2048 and sizes[-1] == 4
    assert len(sizes) <= 9


# ---------------------------------------------------------------- peak


def test_baseline_peak_is_the_first_scan_grid_argmax():
    xs = np.linspace(0.0, 1.0, 2048)
    nets = net_payoff_regular(xs, BASELINE)
    best = int(np.argmax(nets))
    assert find_equilibria(truth_net(BASELINE)).peak == (xs[best], nets[best])


def test_constant_net_peaks_at_the_first_grid_point():
    assert find_equilibria(lambda x: -0.5, grid_points=64).peak == (0.0, -0.5)


# ---------------------------------------------------------------- stable root


def test_stable_root_near_nine_percent():
    root = stable_equilibrium(BASELINE)
    assert root is not None
    assert root == pytest.approx(0.09, abs=0.02)


def test_stable_root_matches_closed_form_in_classic_limit():
    p = TruthGameParams(threshold=1, shared_reward=0.0)
    root = stable_equilibrium(p)
    assert root == pytest.approx(1.0 - (0.5 / 0.9) ** (1.0 / 99.0), abs=1e-6)


def test_stable_root_absent_under_low_reward():
    assert stable_equilibrium(TruthGameParams(shared_reward=3.0)) is None


def test_stable_root_increases_with_reward():
    roots = [
        stable_equilibrium(TruthGameParams(shared_reward=float(s)))
        for s in (5, 6, 7, 8)
    ]
    assert all(r is not None for r in roots)
    assert all(a < b for a, b in zip(roots, roots[1:]))


@pytest.mark.parametrize("n,k,sigma,rel", [
    *((100, 6, sigma, 0.005) for sigma in (5.0, 6.0, 7.0, 8.0)),
    (10**4, 60, 500.0, 1e-9),
])
def test_stable_root_follows_reward_over_cost_times_n(n, k, sigma, rel):
    """Once the quorum is nearly certain the net is -c + sigma E[1/(m+1)],
    so the stable root is about sigma / (c n): fig1's linear rise."""
    params = TruthGameParams(n_regular=n, threshold=k, shared_reward=sigma)
    root = stable_equilibrium(params)
    assert root == pytest.approx(sigma / (params.cost_volunteer * n), rel=rel)


def test_stable_root_barely_moves_with_quorum():
    """Quorum size shifts the unstable root but hardly touches the
    stable one (k=8 has no interior roots at all at this reward level,
    so the comparison runs over the quorums that keep the mixed regime)."""
    reports = {
        k: find_equilibria(truth_net(TruthGameParams(threshold=k)))
        for k in (5, 6, 7, 8)
    }
    assert reports[8].regime == "dominant_defect"
    stable = [reports[k].equilibria[-1].x for k in (5, 6, 7)]
    unstable = [reports[k].equilibria[0].x for k in (5, 6, 7)]
    assert max(stable) - min(stable) <= 0.02
    assert max(unstable) - min(unstable) > (max(stable) - min(stable))


# ---------------------------------------------------------------- exact roots


def test_root_pieces_isolate_each_root():
    """(x - 1/4)(x - 2/3) in the degree-2 Bernstein basis: one piece
    around each root. A double root never isolates, and a root on a cut
    is not decided."""
    def quadratic(a, b):
        return [a * b, a * b - (a + b) / 2, (1 - a) * (1 - b)]

    pieces = root_pieces(quadratic(Fraction(1, 4), Fraction(2, 3)))
    assert len(pieces) == 2
    assert pieces[0][0] < Fraction(1, 4) < pieces[0][1] <= pieces[1][0]
    assert pieces[1][0] < Fraction(2, 3) < pieces[1][1]
    assert root_pieces(quadratic(Fraction(1, 3), Fraction(1, 3))) is None
    assert root_pieces(quadratic(Fraction(1, 2), Fraction(3, 4))) is None


@pytest.mark.parametrize("sigma", range(1, 9))
@pytest.mark.parametrize("k", range(2, 11))
def test_scan_matches_the_exact_roots_at_n_100(k, sigma):
    """At n = 100 (c = 1/2, alpha = 9/10) the net is a degree-99
    polynomial with rational Bernstein coefficients, so its interior
    roots are isolated exactly. The search finds the exact regime and
    the exact number of interior roots, each inside its exact piece."""
    coeffs = regular_net_coefficients(100, k, Fraction(1, 2), Fraction(9, 10), Fraction(sigma))
    pieces = root_pieces(coeffs)
    assert pieces is not None
    regime = "mixed" if pieces else "dominant_defect" if coeffs[0] < 0 else "dominant_volunteer"
    report = find_equilibria(truth_net(TruthGameParams(threshold=k, shared_reward=float(sigma))))
    assert report.regime == regime
    roots = [e.x for e in report.equilibria if 0.0 < e.x < 1.0]
    assert len(roots) == len(pieces), (roots, pieces)
    for x, (lo, hi) in zip(roots, pieces):
        assert lo < Fraction(x) < hi, (x, lo, hi)


# ---------------------------------------------------------------- sampling


def test_sample_curve_baseline_endpoints():
    xs, pair = sample_curve(lambda x: payoff_pair_regular(x, BASELINE))
    assert len(xs) == 101
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert pair.net[0] == -0.5
    assert pair.net[-1] == pytest.approx(-0.45, abs=1e-15)


def test_sample_curve_lists_are_parallel_and_increasing():
    xs, pair = sample_curve(lambda x: payoff_pair_regular(x, BASELINE), points=33)
    n = len(xs)
    assert n == 33
    assert len(pair.volunteer_avg) == n
    assert len(pair.defector_avg) == n
    assert len(pair.net) == n
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_sample_curve_subrange():
    xs, _ = sample_curve(
        lambda x: payoff_pair_regular(x, BASELINE), x_range=(0.2, 0.6), points=5
    )
    assert xs[0] == 0.2
    assert xs[-1] == 0.6


def test_sample_curve_calls_fn_once_on_its_grid():
    calls = []

    def net(x):
        calls.append(x)
        return net_payoff_regular(x, BASELINE)

    xs, ys = sample_curve(net, (0.25, 0.75), 9)
    assert len(calls) == 1 and calls[0] is xs
    assert isinstance(xs, np.ndarray) and xs.dtype == np.float64
    assert np.array_equal(xs, np.linspace(0.25, 0.75, 9))
    assert np.array_equal(ys, net_payoff_regular(xs, BASELINE))


@pytest.mark.parametrize("x_range,points", [((0.5, 0.5), 10), ((0.6, 0.2), 10), ((0.0, 1.0), 1), ((-0.1, 0.5), 10)])
def test_sample_curve_rejects_bad_ranges(x_range, points):
    with pytest.raises(ValueError):
        sample_curve(lambda x: payoff_pair_regular(x, BASELINE), x_range, points)


# ---------------------------------------------------------------- fake side


def fake_net(p_star, tail=TailMode.FULL):
    fp = FakeGameParams()
    return lambda xf: expected_net_payoff_fake(xf, p_star, 100, fp, tail)


@pytest.mark.parametrize("tail", [TailMode.FULL, TailMode.TRUNCATED])
def test_fake_first_crossing_moves_right_with_regular_turnout(tail):
    """More regular volunteering pushes the point where disseminating
    starts to pay outward."""
    crossings = []
    for p_star in (0.04, 0.06, 0.08, 0.10):
        report = find_equilibria(fake_net(p_star, tail))
        assert report.equilibria, p_star
        crossings.append(report.equilibria[0].x)
    assert all(a < b for a, b in zip(crossings, crossings[1:]))


def test_fake_curve_has_positive_region_at_low_turnout():
    net = fake_net(0.04)
    ys = [net(xf) for xf in np.linspace(0.0, 1.0, 101)]
    assert max(ys) > 0.0
    assert ys[0] < 0.0


# ---------------------------------------------------------------- net sequences


def mix_calls(monkeypatch) -> list:
    """(sequences, points) of every numerics.mix call from here on, by a
    spy put wherever the package binds mix."""
    import sys

    import vodgame.cli
    from vodgame import numerics

    calls = []
    real = numerics.mix

    def spy(gains, n, xs):
        out = real(gains, n, xs)
        calls.append((len(out), np.size(xs)))
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("vodgame") and getattr(module, "mix", None) is real:
            monkeypatch.setattr(module, "mix", spy)
    assert getattr(vodgame.cli, "mix", spy) is spy
    return calls


def test_searches_mix_one_sequence(monkeypatch, capsys):
    """Every search mixes the nets' own gain sequences, one per net and
    all of a sweep's nets in each kernel call: a one-net search of
    either game, stable_equilibrium and the CLI's equilibria mix one
    sequence per call, and a sweep of 4 values mixes 4 per call, for its
    curve too. No search mixes the volunteer/defector pair; a curve of
    the pair mixes both."""
    from vodgame.cli import RunConfig, main, run_sweep

    calls = mix_calls(monkeypatch)

    def sequences(run):
        calls.clear()
        run()
        return {count for count, _ in calls}

    assert sequences(lambda: find_equilibria(truth_net(BASELINE))) == {1}
    for tail in TailMode:
        net = lambda x: expected_net_payoff_fake(x, 0.06, 100, FakeGameParams(), tail)  # noqa: E731
        assert sequences(lambda: find_equilibria(net)) == {1}
    assert sequences(lambda: stable_equilibrium(BASELINE)) == {1}
    assert sequences(lambda: main(["equilibria"])) == {1}
    assert sequences(lambda: main(["equilibria", "--model", "fake"])) == {1}
    sweep = (5.0, 6.0, 7.0, 8.0)
    assert sequences(lambda: run_sweep(RunConfig(), "sigma", sweep)) == {4}
    fake = RunConfig(model="fake", pstar=0.06)
    assert sequences(lambda: run_sweep(fake, "pstar", (0.04, 0.06, 0.08, 0.1))) == {4}
    capsys.readouterr()
    assert sequences(lambda: sample_curve(lambda x: payoff_pair_regular(x, BASELINE))) == {2}


def _report_bits(report):
    # every field of a RegimeReport, its floats by their hex form so that
    # -0.0 and 0.0 differ
    eqs = [(e.x.hex(), e.slope.hex(), e.stability) for e in report.equilibria]
    return eqs, report.regime, tuple(v.hex() for v in report.peak)


@pytest.mark.parametrize("overrides,name,values", [
    ({}, "sigma", (5.0, 6.0, 7.0, 8.0)),
    ({}, "k", (1, 5, 6, 7, 8)),  # 1, 2, 2, 2 and 0 roots at sigma = 5
    ({"model": "fake", "tail": "full"}, "pstar", (0.04, 0.06, 0.08, 0.10)),
    ({"model": "fake", "tail": "truncated"}, "pstar", (0.04, 0.06, 0.08, 0.10)),
    ({"grid": 3}, "k", (5, 6, 7, 8)),
    ({"grid": 8}, "sigma", (5.0, 6.0, 7.0, 8.0)),
    ({"grid": 8, "model": "fake"}, "pstar", (0.04, 0.06, 0.08, 0.10)),
    ({"grid": 100, "tol": 1e-6}, "k", (5, 6, 7, 8)),
    ({}, "n", (100, 50, 2000, 100)),
    ({"model": "fake", "pstar": 0.06}, "f", (8, 4, 12)),
], ids=["fig1", "fig2-roots-0-1-2", "fig3-full", "fig3-truncated", "grid3", "grid8",
        "fake-grid8", "tol", "n", "f"])
def test_sweep_batch_equals_one_net_searches_bit_for_bit(overrides, name, values):
    """A sweep searches the nets of one degree as one batch. Each of its
    reports, every Equilibrium field, the regime and the peak, and each
    curve is bit for bit the search and the samples of that net alone,
    and the CSVs are those of one-value sweeps; sweeps over n or f, whose
    degrees differ, keep the order of values."""
    from vodgame.cli import RunConfig, _model_fns, _sweep_csvs, run_sweep
    from vodgame.numerics import mix

    base = RunConfig(points=201, **overrides)
    results = run_sweep(base, name, values)
    assert [value for value, _, _ in results] == list(values)
    one_by_one = [run_sweep(base, name, (value,))[0] for value in values]
    assert _sweep_csvs(name, results) == _sweep_csvs(name, one_by_one)
    for value, (xs, curve), report in results:
        gains, degree = _model_fns(replace(base, **{name: value})).net()
        alone = find_equilibria(lambda x: mix(gains, degree, x)[0], base.grid, base.tol)
        assert _report_bits(report) == _report_bits(alone), value
        want = mix(gains, degree, xs)[0]
        assert np.array_equal(curve.view(np.int64), want.view(np.int64)), value


def test_batch_equals_one_net_searches_on_exact_zeros():
    """Nets with an exact zero on the grid, one at a section's cut point,
    two roots, none, and zero throughout, searched as one batch on a
    5-point grid, give each net's own report bit for bit."""
    from vodgame.equilibrium import _search

    nets = [
        lambda x: x - 0.25,
        lambda x: x - 0.375,
        lambda x: (x - 0.2) * (x - 0.7),
        lambda x: -1.0 - x,
        lambda x: 0.0 * x,
    ]
    for tol, counts in ((1e-10, [1, 1, 2, 0, 5]), (0.3, [1, 1, 2, 0, 3])):
        batch = _search(lambda x: np.array([net(x) for net in nets]), len(nets), 5, tol)
        assert [len(report.equilibria) for report in batch] == counts
        for net, report in zip(nets, batch):
            assert _report_bits(report) == _report_bits(find_equilibria(net, 5, tol))


@pytest.mark.parametrize("tail", list(TailMode))
def test_fig3_batch_matches_the_exact_roots(tail):
    """fig3's fake nets, at p* in {0.04, 0.06, 0.08, 0.10} and the binary
    values of every setting, are degree-7 polynomials with rational
    Bernstein coefficients alpha P[M = j + 1] - cf T over j = 0..7 peers,
    T = 1 or, truncated, P[M <= 8]. The batched search of each mode finds
    the exact number of interior roots, each inside its exact piece."""
    from exact_binomial import exact_pmf

    from vodgame.cli import RunConfig, run_sweep

    params = FakeGameParams()
    f, alpha, cf = params.n_fake, Fraction(params.cost_failure), Fraction(params.cost_volunteer_fake)
    values = (0.04, 0.06, 0.08, 0.10)
    results = run_sweep(RunConfig(model="fake", tail=tail.value), "pstar", values)
    for p_star, _, report in results:
        total = 1 if tail is TailMode.FULL else sum(exact_pmf(100, m, p_star) for m in range(f + 1))
        coeffs = [alpha * exact_pmf(100, j + 1, p_star) - cf * total for j in range(f)]
        pieces = root_pieces(coeffs)
        assert pieces, p_star
        roots = [e.x for e in report.equilibria if 0.0 < e.x < 1.0]
        assert len(roots) == len(pieces), (p_star, roots, pieces)
        for x, (lo, hi) in zip(roots, pieces):
            assert lo < Fraction(x) < hi, (p_star, x, lo, hi)
