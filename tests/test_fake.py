"""Fake-side game: payoffs against a known regular turnout and the
turnout-averaged expectations in both tail modes.

A known turnout r is the binomial turnout M ~ Binomial(r, 1), or
Binomial(1, 0) for r = 0: its pmf row is one-hot at r, so the FULL
average is the payoff against r (see `against`)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from exact_binomial import exact_fake_net, exact_tail_above

from vodgame.fake import (
    FakeGameParams,
    TailMode,
    expected_fake_payoffs,
    expected_net_payoff_fake,
)
from vodgame.numerics import pmf_row
from vodgame.oracle import enumerate_fake_exact

BASELINE = FakeGameParams()
STRICT = FakeGameParams(strict_dominance=True)


def against(x_f, turnout, params):
    """Both averages against a known regular turnout, under FULL, which
    weighs a turnout above n_fake as a loss for both roles."""
    if turnout:
        return expected_fake_payoffs(x_f, 1.0, turnout, params)
    return expected_fake_payoffs(x_f, 0.0, 1, params)


# ---------------------------------------------------------------- parameters


def test_defaults():
    p = FakeGameParams()
    assert (p.n_fake, p.cost_volunteer_fake, p.cost_failure) == (8, 0.1, 0.9)
    assert p.strict_dominance is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_fake": 0},
        {"cost_volunteer_fake": 0.0},
        {"cost_volunteer_fake": -0.1},
        {"cost_volunteer_fake": 0.9},
        {"cost_volunteer_fake": 1.2, "cost_failure": 0.9},
        {"cost_volunteer_fake": math.nan},
        {"cost_volunteer_fake": math.inf},
        {"cost_failure": math.nan},
        {"cost_failure": math.inf},
    ],
)
def test_rejects_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        FakeGameParams(**kwargs)


@pytest.mark.parametrize("value", [8.0, 8.5, True])
def test_rejects_n_fake_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="n_fake must be an integer"):
        FakeGameParams(n_fake=value)


@pytest.mark.parametrize("fn", [expected_fake_payoffs, expected_net_payoff_fake])
@pytest.mark.parametrize("value", [100.0, 100.5, True])
def test_rejects_n_regular_that_is_not_an_integer(fn, value):
    with pytest.raises(ValueError, match="n_regular must be an integer"):
        fn(0.5, 0.09, value, BASELINE)


@pytest.mark.parametrize("fn", [expected_fake_payoffs, expected_net_payoff_fake])
@pytest.mark.parametrize("value", [1.5, -0.1, math.nan, np.array([0.5, 1.5])])
def test_rejects_x_f_outside_the_unit_interval_under_its_own_name(fn, value):
    with pytest.raises(ValueError, match=r"^x_f must lie in \[0, 1\]"):
        fn(value, 0.09, 100, BASELINE)


@pytest.mark.parametrize("value", [3.0, 3.5, True])
def test_enumerate_fake_exact_rejects_turnout_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="regular_volunteers must be an integer"):
        enumerate_fake_exact(BASELINE, value, 0.3)


def test_accepts_numpy_integer_counts():
    p = FakeGameParams(n_fake=np.int64(8))
    want = expected_net_payoff_fake(0.3, 0.09, 100, BASELINE)
    assert expected_net_payoff_fake(0.3, 0.09, np.int64(100), p) == want
    assert enumerate_fake_exact(p, np.int64(3), 0.3) == enumerate_fake_exact(BASELINE, 3, 0.3)


# ---------------------------------------------------------- one realized count
# At x_f = 0 no peer volunteers and at x_f = 1 every one does, so exact
# enumeration weighs one profile with weight 1: the game's rule for one count.


def test_individual_tie_counts_as_success():
    # six pushers against a turnout of six
    pair = enumerate_fake_exact(FakeGameParams(n_fake=6), 6, 1.0)
    assert pair.volunteer_avg == 0.9


def test_individual_outnumbered_volunteer_loses_both_costs():
    pair = enumerate_fake_exact(FakeGameParams(n_fake=3), 6, 1.0)
    assert pair.volunteer_avg == pytest.approx(0.0, abs=1e-15)


def test_individual_defector_wins_empty_tie():
    # zero against zero is still a tie
    assert enumerate_fake_exact(BASELINE, 0, 0.0).defector_avg == 1.0


def test_individual_strict_mode_breaks_ties():
    tie = enumerate_fake_exact(FakeGameParams(n_fake=6, strict_dominance=True), 6, 1.0)
    assert tie.volunteer_avg == pytest.approx(0.0, abs=1e-15)
    ahead = enumerate_fake_exact(FakeGameParams(n_fake=7, strict_dominance=True), 6, 1.0)
    assert ahead.volunteer_avg == 0.9


# ---------------------------------------------------------------- averages


def test_volunteer_avg_unopposed_is_certain():
    for x_f in (0.0, 0.5, 1.0):
        assert against(x_f, 0, BASELINE).volunteer_avg == 0.9


def test_volunteer_avg_full_squad_matches_equal_turnout():
    # all eight against eight is a tie, hence success
    assert against(1.0, 8, BASELINE).volunteer_avg == 0.9


def test_volunteer_avg_lone_pusher_outnumbered():
    assert against(0.0, 2, BASELINE).volunteer_avg == pytest.approx(0.0, abs=1e-15)


def test_defector_avg_unopposed_is_one():
    for x_f in (0.0, 0.3, 1.0):
        assert against(x_f, 0, BASELINE).defector_avg == 1.0


def test_defector_avg_no_peers_active():
    assert against(0.0, 1, BASELINE).defector_avg == pytest.approx(0.1, abs=1e-15)


def test_defector_avg_seven_peer_coin_flips():
    # P[Bin(7, 0.5) >= 4] = 1/2, so 0.1 + 0.9/2
    got = against(0.5, 4, BASELINE).defector_avg
    assert got == pytest.approx(0.55, abs=1e-12)


def test_strict_mode_shifts_the_needed_count():
    got = against(0.5, 4, STRICT).defector_avg
    want = 0.1 + 0.9 * (29.0 / 128.0)  # P[Bin(7,.5) >= 5] = 29/128
    assert got == pytest.approx(want, abs=1e-12)


def test_per_role_payoffs_mix_one_sequence(monkeypatch):
    """Each per-role average of the validation game mixes only its own
    gain sequence, one per kernel call, and keeps the bits it had as one
    row of a two-sequence mix of both roles. The fake side has no
    per-role average: a known turnout goes through expected_fake_payoffs
    (see `against` and the tests above that use it)."""
    import vodgame.truth
    from vodgame.truth import (
        TruthGameParams,
        avg_payoff_defector,
        avg_payoff_volunteer,
        payoff_pair_regular,
    )

    xs = np.array([0.0, 5e-324, 1e-9, 0.2, 0.5, 1 - 1e-7, 1.0])
    truth = TruthGameParams()
    pair = payoff_pair_regular(xs, truth)
    want = [pair.volunteer_avg, pair.defector_avg]
    sequences = []

    def spy(gains, n, x, real=vodgame.truth.mix):
        out = real(gains, n, x)
        sequences.append(len(out))
        return out

    monkeypatch.setattr(vodgame.truth, "mix", spy)
    got = [avg_payoff_volunteer(xs, truth), avg_payoff_defector(xs, truth)]
    assert sequences == [1] * len(got)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


# ---------------------------------------------------------------- expectation


@pytest.mark.parametrize("tail", [TailMode.FULL, TailMode.TRUNCATED])
def test_expected_net_no_regulars_volunteering(tail):
    # turnout is surely zero: the push always wins, the cost is all that
    # separates joining from watching
    net = expected_net_payoff_fake(0.5, 0.0, 100, BASELINE, tail)
    assert net == pytest.approx(-0.1, abs=1e-15)


def test_expected_net_certain_regular_wall_full_mode():
    # turnout 100 beats any push; both roles fail, difference is the cost
    net = expected_net_payoff_fake(0.5, 1.0, 100, BASELINE, TailMode.FULL)
    assert net == pytest.approx(-0.1, abs=1e-15)


def test_expected_pair_reports_net_difference():
    pair = expected_fake_payoffs(0.4, 0.09, 100, BASELINE)
    assert pair.net == pair.volunteer_avg - pair.defector_avg


def test_expected_defaults_to_full_mode():
    a = expected_fake_payoffs(0.3, 0.09, 100, BASELINE)
    b = expected_fake_payoffs(0.3, 0.09, 100, BASELINE, TailMode.FULL)
    assert a == b


def _check_against_turnout_loop(tail, n, params, p_star):
    """The expectation agrees with an explicit sum over turnout values
    weighted by the Binomial(n_regular, p*) pmf, including turnouts the
    fake side cannot reach and regular sides no larger than it."""
    x_f = 0.35
    m_hi = min(params.n_fake, n) if tail is TailMode.TRUNCATED else n
    weights = pmf_row(n, p_star)
    pairs = [against(x_f, m, params) for m in range(m_hi + 1)]
    v = math.fsum(weights[m] * pair.volunteer_avg for m, pair in enumerate(pairs))
    d = math.fsum(weights[m] * pair.defector_avg for m, pair in enumerate(pairs))
    pair = expected_fake_payoffs(x_f, p_star, n, params, tail)
    assert pair.volunteer_avg == pytest.approx(v, abs=1e-12)
    assert pair.defector_avg == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("tail", [TailMode.FULL, TailMode.TRUNCATED])
def test_expected_matches_scalar_turnout_loop(tail):
    _check_against_turnout_loop(tail, 100, BASELINE, 0.09)


@pytest.mark.parametrize(
    "n, params",
    [(3, BASELINE), (8, BASELINE), (3, STRICT), (8, STRICT), (100, STRICT)],
    ids=["3-ties_win", "8-ties_win", "3-strict", "8-strict", "100-strict"],
)
@pytest.mark.parametrize("tail", [TailMode.FULL, TailMode.TRUNCATED])
def test_expected_matches_scalar_turnout_loop_small_n_and_strict(tail, n, params):
    """The same check at n_regular <= n_fake and with strict dominance."""
    _check_against_turnout_loop(tail, n, params, 0.09 if n == 100 else 0.6)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        expected_fake_payoffs(1.5, 0.09, 100, BASELINE)
    with pytest.raises(ValueError):
        expected_fake_payoffs(0.5, -0.1, 100, BASELINE)
    with pytest.raises(ValueError):
        expected_fake_payoffs(0.5, 0.09, 0, BASELINE)
    with pytest.raises(ValueError):
        enumerate_fake_exact(BASELINE, -1, 0.5)
    for bad in (np.array([0.1, math.nan]), np.array([-0.5, 0.5])):
        with pytest.raises(ValueError):
            expected_fake_payoffs(bad, 0.09, 100, BASELINE)


def _turnout_loop(x_f, p_star, n, params, tail):
    """Both averages as a loop over the turnouts M <= n_fake with a
    nonzero pmf entry, plus, under FULL, the mass above n_fake weighing
    the turnout n_fake + 1, which loses for both roles as every larger
    one does."""
    f = params.n_fake
    row = pmf_row(n, p_star)
    tail_row = row[f + 1 :]
    above = math.fsum(tail_row[np.flatnonzero(tail_row)]) if tail is TailMode.FULL else 0.0
    kept = np.flatnonzero(row[: f + 1]).tolist()
    weights = [row[m] for m in kept] + [above]
    pairs = [against(x_f, m, params) for m in kept + [f + 1]]
    return [
        math.fsum(w * pair.volunteer_avg for w, pair in zip(weights, pairs)),
        math.fsum(w * pair.defector_avg for w, pair in zip(weights, pairs)),
    ]


@pytest.mark.parametrize(
    "n, p_star",
    [(10**6, 0.0), (10**6, 5e-6), (10**6, 0.3), (10**6, 1.0), (3, 0.3)],
)
@pytest.mark.parametrize("strict", [False, True], ids=["ties_win", "strict"])
@pytest.mark.parametrize("tail", [TailMode.FULL, TailMode.TRUNCATED])
def test_expected_reads_only_the_turnout_window(tail, strict, n, p_star):
    """The expectation weighs P[M = 0..n_fake] and the mass above n_fake,
    both read from M's Bernstein window alone, and matches the loop over
    the whole pmf row. At p* = 0.3 and n = 10^6 the window starts above
    n_fake + 1; at p* = 0 and 1 it is one count wide; n = 3 is below
    n_fake = 8."""
    params = FakeGameParams(strict_dominance=strict)
    for x_f in (0.0, 0.35, 0.9):
        pair = expected_fake_payoffs(x_f, p_star, n, params, tail)
        volunteer, defector = _turnout_loop(x_f, p_star, n, params, tail)
        assert abs(pair.volunteer_avg - volunteer) <= 1e-15, x_f
        assert abs(pair.defector_avg - defector) <= 1e-15, x_f


def test_expected_places_a_window_that_starts_among_the_kept_turnouts():
    """At n = 1100 and p* = 0.99 M's window starts at 560, and its mass,
    around M = 1089, lies mostly below n_fake = 1095: each entry must
    weigh its own turnout."""
    params = FakeGameParams(n_fake=1095)
    pair = expected_fake_payoffs(0.99, 0.99, 1100, params)
    volunteer, defector = _turnout_loop(0.99, 0.99, 1100, params, TailMode.FULL)
    assert abs(pair.volunteer_avg - volunteer) <= 1e-15
    assert abs(pair.defector_avg - defector) <= 1e-15


# ---------------------------------------------------------------- properties


@pytest.mark.parametrize("strict", [False, True], ids=["ties_win", "strict"])
@pytest.mark.parametrize("tail", [TailMode.FULL, TailMode.TRUNCATED])
@pytest.mark.parametrize("p_star", [0.04, 0.06, 0.08, 0.10])
def test_net_matches_the_exact_pivot_form_at_n_100(p_star, tail, strict):
    """The net and the pair's net at n = 100 against the exact rational
    sum_j b(j; f-1, x_f) (alpha P[M = j+1-s] - cf T), taking p* and x_f
    at their binary values, within 1e-13 times max(1, |net|)."""
    params = FakeGameParams(strict_dominance=strict)
    xs = np.array([0.0, 0.1, 0.375, 0.5, 0.9, 1.0])
    net = expected_net_payoff_fake(xs, p_star, 100, params, tail)
    pair = expected_fake_payoffs(xs, p_star, 100, params, tail)
    for i, x_f in enumerate(xs.tolist()):
        want = exact_fake_net(params, 100, p_star, x_f, tail is TailMode.TRUNCATED)
        for got in (net[i], pair.net[i]):
            error = abs(Fraction(float(got)) - want)
            assert error <= 1e-13 * max(1.0, abs(want)), (x_f, float(error))


def test_tail_mode_gap_is_exactly_the_discarded_cost():
    """Truncated minus full equals cost_volunteer_fake * P[turnout > n_fake]:
    the truncation drops only losing turnouts, where both roles fail and
    the volunteer is down by exactly the participation cost. P[turnout >
    n_fake] is taken from exact rationals."""
    for i in range(4):
        p_star = 0.03 + 0.04 * i
        want = BASELINE.cost_volunteer_fake * exact_tail_above(100, BASELINE.n_fake, p_star)
        for j in range(5):
            x_f = 0.1 + 0.2 * j
            gap = expected_net_payoff_fake(
                x_f, p_star, 100, BASELINE, TailMode.TRUNCATED
            ) - expected_net_payoff_fake(x_f, p_star, 100, BASELINE, TailMode.FULL)
            assert gap == pytest.approx(want, abs=1e-12)


def test_averages_stay_in_payoff_band():
    lo = 1.0 - BASELINE.cost_failure - BASELINE.cost_volunteer_fake
    for m in range(13):
        for j in range(11):
            x_f = j / 10.0
            pair = against(x_f, m, BASELINE)
            assert lo <= pair.volunteer_avg <= 1.0
            assert lo <= pair.defector_avg <= 1.0


def test_net_stays_in_difference_band():
    band = BASELINE.cost_failure  # net differences cannot exceed the failure cost
    for tail in (TailMode.FULL, TailMode.TRUNCATED):
        for i in range(5):
            for j in range(11):
                net = expected_net_payoff_fake(
                    j / 10.0, 0.02 + 0.03 * i, 100, BASELINE, tail
                )
                assert -band - BASELINE.cost_volunteer_fake <= net <= band


@pytest.mark.parametrize("x_f", [0.0, 0.2, 0.5, 0.8, 1.0])
def test_success_odds_never_improve_with_more_opposition(x_f):
    pairs = [against(x_f, m, BASELINE) for m in range(15)]
    vols = [pair.volunteer_avg for pair in pairs]
    defs_ = [pair.defector_avg for pair in pairs]
    assert all(a >= b for a, b in zip(vols, vols[1:]))
    assert all(a >= b for a, b in zip(defs_, defs_[1:]))


@pytest.mark.parametrize("n_fake", [1, 4, 8, 10])
@pytest.mark.parametrize("x_f", [0.2, 0.5, 0.8])
def test_matches_exhaustive_enumeration(n_fake, x_f):
    p = FakeGameParams(n_fake=n_fake)
    for m in range(13):
        pair = enumerate_fake_exact(p, m, x_f)
        got = against(x_f, m, p)
        assert got.volunteer_avg == pytest.approx(pair.volunteer_avg, abs=1e-10)
        assert got.defector_avg == pytest.approx(pair.defector_avg, abs=1e-10)
