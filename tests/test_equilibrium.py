"""Root finding and classification on the game's net-payoff curves."""

import math

import numpy as np
import pytest

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


def test_searches_mix_one_sequence(monkeypatch, capsys):
    """Every search mixes the net's own gain sequence, one per kernel
    call: the library searches of both games, stable_equilibrium, the
    CLI's equilibria and its sweeps, whose curves sample the net too. A
    curve of the pair mixes the volunteer and the defector."""
    import vodgame.fake
    import vodgame.truth
    from vodgame.cli import RunConfig, main, run_sweep

    sequences = []
    for module in (vodgame.truth, vodgame.fake):
        def spy(gains, n, xs, real=module.mix):
            out = real(gains, n, xs)
            sequences.append(len(out))
            return out

        monkeypatch.setattr(module, "mix", spy)
    find_equilibria(truth_net(BASELINE))
    for tail in TailMode:
        find_equilibria(lambda x: expected_net_payoff_fake(x, 0.06, 100, FakeGameParams(), tail))
    stable_equilibrium(BASELINE)
    assert main(["equilibria"]) == 0
    assert main(["equilibria", "--model", "fake"]) == 0
    run_sweep(RunConfig(), "sigma", (5.0,))
    run_sweep(RunConfig(model="fake", pstar=0.06), "pstar", (0.04,))
    capsys.readouterr()
    assert sequences and set(sequences) == {1}
    sequences.clear()
    sample_curve(lambda x: payoff_pair_regular(x, BASELINE))
    assert sequences == [2]
