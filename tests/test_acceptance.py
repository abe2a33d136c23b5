"""Acceptance suite: one test per numbered criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion (criterion 9 is split into its three sub-claims). The
tests state the claims exactly as contracted; the ones the model cannot
satisfy stay red on purpose, with the measured values in the failure
message. Diagnostic prints are visible with `-rA`.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from exact_bernstein import bernstein_value, halves, negative_pieces, regular_net_coefficients
from exact_binomial import exact_tail_above

from vodgame.cli import main
from vodgame.equilibrium import (
    STABLE,
    UNSTABLE,
    find_equilibria,
    stable_equilibrium,
)
from vodgame.fake import (
    FakeGameParams,
    TailMode,
    expected_fake_payoffs,
    expected_net_payoff_fake,
)
from vodgame.oracle import (
    enumerate_fake_exact,
    enumerate_truth_exact,
    simulate_fake,
    simulate_truth,
)
from vodgame.truth import (
    TruthGameParams,
    avg_payoff_defector,
    avg_payoff_volunteer,
    net_payoff_regular,
)


def truth_report(**kwargs):
    params = TruthGameParams(**kwargs)
    return find_equilibria(lambda x: net_payoff_regular(x, params))


def test_c01_stable_root_band_across_thresholds():
    """Every threshold in {5,6,7,8} yields exactly one stable root,
    all inside [0.07, 0.11] and within 0.02 of each other, in under a
    second."""
    t0 = time.perf_counter()
    stable_by_k = {}
    for k in (5, 6, 7, 8):
        report = truth_report(threshold=k)
        stable_by_k[k] = [e.x for e in report.equilibria if e.stability == STABLE]
    elapsed = time.perf_counter() - t0
    counts = {k: len(v) for k, v in stable_by_k.items()}
    assert counts == {5: 1, 6: 1, 7: 1, 8: 1}, (
        f"expected exactly one stable root per threshold, found {counts} "
        f"(roots: { {k: [f'{x:.6f}' for x in v] for k, v in stable_by_k.items()} })"
    )
    roots = [v[0] for v in stable_by_k.values()]
    assert all(0.07 <= r <= 0.11 for r in roots), roots
    assert max(roots) - min(roots) <= 0.02, roots
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def exact_net(k, sigma):
    # the regular net at n = 100, c = 1/2, alpha = 9/10 as exact Bernstein coefficients
    return regular_net_coefficients(100, k, Fraction(1, 2), Fraction(9, 10), sigma)


def test_c01_companion_the_k8_net_is_exactly_negative_at_sigma_5():
    """c01's k = 8 finding, proved at n = 100 in exact rationals: the net
    is negative on all of [0, 1], so there is no root to find, and it
    stays so up to sigma = 5.1986. At sigma = 5.1988 it is positive at
    x = 0.090773, so the fold of k = 8 lies between the two. The
    coefficients are the kernel's net to rounding."""
    coeffs = exact_net(8, Fraction(5))
    for x in (0.01, 0.09, 0.5, 0.99):
        want = net_payoff_regular(x, TruthGameParams(threshold=8))
        assert abs(float(bernstein_value(coeffs, x)) - want) <= 1e-13, x
    pieces = negative_pieces(coeffs)
    assert pieces is not None and pieces[0][0] == 0 and pieces[-1][1] == 1
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
    assert negative_pieces(exact_net(8, Fraction(25993, 5000))) is not None
    above = bernstein_value(exact_net(8, Fraction(51988, 10000)), Fraction(90773, 10**6))
    assert 9.06e-6 < above < 9.08e-6


def test_c01_companion_halves_restrict_the_polynomial():
    """The proof's subdivision: each half's coefficients, over 2^degree,
    are the polynomial on that half, exactly."""
    coeffs = [3, -1, 4, -1, 5, -9]
    left, right = halves(coeffs)
    for x in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert bernstein_value(left, x) / 2**5 == bernstein_value(coeffs, x / 2)
        assert bernstein_value(right, x) / 2**5 == bernstein_value(coeffs, (1 + x) / 2)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_c01_companion_no_proof_where_a_stable_root_exists(k):
    """At sigma = 5 the thresholds 5, 6 and 7 have their root pair, so
    the net is positive somewhere and the proof fails."""
    assert negative_pieces(exact_net(k, Fraction(5))) is None


def test_c02_two_equilibria_per_reward():
    """Rewards 5 through 8 each give a mixed regime with exactly two
    roots, the smaller unstable and the larger stable."""
    for sigma in (5.0, 6.0, 7.0, 8.0):
        report = truth_report(shared_reward=sigma)
        assert report.regime == "mixed", (sigma, report.regime)
        assert len(report.equilibria) == 2, (sigma, report.equilibria)
        lower, upper = report.equilibria
        assert lower.stability == UNSTABLE and lower.slope > 0.0, (sigma, lower)
        assert upper.stability == STABLE and upper.slope < 0.0, (sigma, upper)


def test_c03_stable_root_increases_with_reward():
    roots = [
        stable_equilibrium(TruthGameParams(shared_reward=float(s)))
        for s in (5, 6, 7, 8)
    ]
    assert all(r is not None for r in roots), roots
    assert all(a < b for a, b in zip(roots, roots[1:])), roots


def test_c04_low_reward_defection_dominates():
    """Rewards 1 through 3: no equilibria and a negative net payoff at
    every scan grid point."""
    for sigma in (1.0, 2.0, 3.0):
        params = TruthGameParams(shared_reward=sigma)
        report = find_equilibria(lambda x: net_payoff_regular(x, params))
        assert report.regime == "dominant_defect", (sigma, report.regime)
        worst = max(
            net_payoff_regular(float(x), params) for x in np.linspace(0.0, 1.0, 2048)
        )
        assert worst < 0.0, (sigma, worst)


def test_c05_large_threshold_defection_dominates():
    for k in (9, 10):
        report = truth_report(threshold=k)
        assert report.regime == "dominant_defect", (k, report.regime)


def test_c06_classic_closed_form_limit():
    """With no reward and threshold 1 the game must collapse to the
    textbook dilemma: root 1-(c/alpha)^(1/(n-1)) and the closed-form
    curve everywhere."""
    params = TruthGameParams(threshold=1, shared_reward=0.0)
    report = find_equilibria(lambda x: net_payoff_regular(x, params))
    assert len(report.equilibria) == 1, report.equilibria
    want_root = 1.0 - (0.5 / 0.9) ** (1.0 / 99.0)
    assert report.equilibria[0].x == pytest.approx(want_root, abs=1e-6)
    for i in range(101):
        x = i / 100.0
        closed = 0.9 * (1.0 - x) ** 99 - 0.5
        assert net_payoff_regular(x, params) == pytest.approx(closed, abs=1e-12)


def test_c07_exact_enumeration_agreement():
    """Analytic averages equal brute-force profile enumeration to 1e-10
    over every small-population combination."""
    for n in range(2, 15):
        for k in range(1, n + 1):
            for sigma in (0.0, 2.0):
                params = TruthGameParams(n_regular=n, threshold=k, shared_reward=sigma)
                for x in (0.2, 0.5, 0.8):
                    pair = enumerate_truth_exact(params, x)
                    assert avg_payoff_volunteer(x, params) == pytest.approx(
                        pair.volunteer_avg, abs=1e-10
                    ), (n, k, sigma, x)
                    assert avg_payoff_defector(x, params) == pytest.approx(
                        pair.defector_avg, abs=1e-10
                    ), (n, k, sigma, x)
    # a known turnout m is M ~ Binomial(m, 1), or Binomial(1, 0) for m = 0
    for f in range(1, 11):
        fparams = FakeGameParams(n_fake=f)
        for m in range(13):
            for x_f in (0.2, 0.5, 0.8):
                pair = enumerate_fake_exact(fparams, m, x_f)
                got = expected_fake_payoffs(x_f, float(m > 0), max(m, 1), fparams)
                assert got.volunteer_avg == pytest.approx(
                    pair.volunteer_avg, abs=1e-10
                ), (f, m, x_f)
                assert got.defector_avg == pytest.approx(
                    pair.defector_avg, abs=1e-10
                ), (f, m, x_f)


def test_c08_monte_carlo_agreement():
    """A million seeded trials at the operating point land within three
    standard errors of the formulas, for both games; one reseed is
    allowed before this counts as a failure."""
    tparams = TruthGameParams()
    fparams = FakeGameParams()
    from vodgame.fake import expected_fake_payoffs

    def standardized_deviations(seed):
        zs = {}
        r = simulate_truth(tparams, 0.09, 1_000_000, seed)
        zs["truth volunteer"] = (
            r.volunteer_avg_hat - avg_payoff_volunteer(0.09, tparams)
        ) / r.volunteer_se
        zs["truth defector"] = (
            r.defector_avg_hat - avg_payoff_defector(0.09, tparams)
        ) / r.defector_se
        rf = simulate_fake(0.09, 100, fparams, 0.5, 1_000_000, seed)
        pair = expected_fake_payoffs(0.5, 0.09, 100, fparams, TailMode.FULL)
        zs["fake volunteer"] = (rf.volunteer_avg_hat - pair.volunteer_avg) / rf.volunteer_se
        zs["fake defector"] = (rf.defector_avg_hat - pair.defector_avg) / rf.defector_se
        return zs

    zs = standardized_deviations(42)
    print("standardized deviations, seed 42:",
          {k: f"{v:+.3f}" for k, v in zs.items()})
    if any(abs(z) > 3.0 for z in zs.values()):
        zs = standardized_deviations(43)
        print("standardized deviations after reseed, seed 43:",
              {k: f"{v:+.3f}" for k, v in zs.items()})
    assert all(abs(z) <= 3.0 for z in zs.values()), zs


@lru_cache(maxsize=None)
def _fake_curve_summary(mode: str):
    """Max net over a fine grid, its location, and the first zero
    crossing, per regular-turnout probability."""
    tail = TailMode(mode)
    fparams = FakeGameParams()
    xs = np.linspace(0.0, 1.0, 4097)
    out = {}
    for p_star in (0.04, 0.06, 0.08, 0.10):
        nets = expected_net_payoff_fake(xs, p_star, 100, fparams, tail)
        best = int(np.argmax(nets))
        report = find_equilibria(
            lambda xf: expected_net_payoff_fake(xf, p_star, 100, fparams, tail)
        )
        first = report.equilibria[0].x if report.equilibria else None
        out[p_star] = (float(nets[best]), float(xs[best]), first)
    return out


def test_c09a_fake_max_net_decreasing_both_modes():
    """The best achievable net payoff of pushing falls as regular
    turnout rises, in both turnout-averaging modes."""
    for mode in ("full", "truncated"):
        summary = _fake_curve_summary(mode)
        maxima = [summary[p][0] for p in (0.04, 0.06, 0.08, 0.10)]
        print(f"max net by turnout [{mode}]:",
              " > ".join(f"{m:.6f}" for m in maxima))
        assert all(a > b for a, b in zip(maxima, maxima[1:])), (mode, maxima)


def test_c09b_fake_first_crossing_shifts_right_both_modes():
    """The first break-even point in the push probability moves right
    as regular turnout rises, in both modes."""
    for mode in ("full", "truncated"):
        summary = _fake_curve_summary(mode)
        crossings = [summary[p][2] for p in (0.04, 0.06, 0.08, 0.10)]
        assert all(c is not None for c in crossings), (mode, crossings)
        assert all(a < b for a, b in zip(crossings, crossings[1:])), (mode, crossings)


def test_c09c_fake_max_net_ratio_window():
    """The max-net ratio between 4% and 10% turnout lies in [2.5, 5.5]
    in at least one mode."""
    ratios = {}
    for mode in ("full", "truncated"):
        summary = _fake_curve_summary(mode)
        hi, lo = summary[0.04][0], summary[0.10][0]
        ratios[mode] = hi / lo if lo != 0.0 else math.inf
    print("max-net ratio, 4% over 10% turnout:",
          {k: f"{v:.3f}" for k, v in ratios.items()})
    assert any(2.5 <= r <= 5.5 for r in ratios.values()), ratios


def test_c10_tail_mode_identity():
    """Truncated minus full net equals the participation cost times the
    probability of a turnout above the fake group size, to 1e-12, on a
    20-point grid."""
    fparams = FakeGameParams()
    for p_star in (0.04, 0.06, 0.08, 0.10):
        discarded = exact_tail_above(100, fparams.n_fake, p_star)
        for x_f in (0.1, 0.3, 0.5, 0.7, 0.9):
            gap = expected_net_payoff_fake(
                x_f, p_star, 100, fparams, TailMode.TRUNCATED
            ) - expected_net_payoff_fake(x_f, p_star, 100, fparams, TailMode.FULL)
            want = fparams.cost_volunteer_fake * discarded
            assert abs(gap - want) <= 1e-12, (p_star, x_f, gap, want)


def test_c11_reproduce_byte_identical(tmp_path):
    """reproduce fig1|fig2|fig3 writes identical bytes across three
    repeated runs."""

    def run(figure, tag):
        out = tmp_path / f"{figure}_{tag}"
        assert main(["reproduce", figure, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    for figure in ("fig1", "fig2", "fig3"):
        first = run(figure, "a")
        again = run(figure, "b")
        third = run(figure, "c")
        assert first == again, f"{figure}: repeated run differs"
        assert first == third, f"{figure}: third run differs"
        assert first, f"{figure}: no files written"
