import math
from fractions import Fraction

import numpy as np
import pytest
from exact_binomial import exact_regular_payoffs

from vodgame.numerics import mix
from vodgame.oracle import enumerate_truth_exact
from vodgame.truth import (
    TruthGameParams,
    avg_payoff_defector,
    avg_payoff_volunteer,
    net_payoff_regular,
    payoff_pair_regular,
)

BASELINE = TruthGameParams()


# ---------------------------------------------------------------- parameters


def test_defaults():
    p = TruthGameParams()
    assert (p.n_regular, p.threshold) == (100, 6)
    assert (p.cost_volunteer, p.cost_failure, p.shared_reward) == (0.5, 0.9, 5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_regular": 1},
        {"threshold": 0},
        {"threshold": 101},
        {"cost_volunteer": 0.0},
        {"cost_volunteer": -0.2},
        {"cost_failure": 0.0},
        {"shared_reward": -1.0},
        {"cost_volunteer": 0.9, "cost_failure": 0.5},
        {"cost_volunteer": 0.9, "cost_failure": 0.9},
        {"cost_volunteer": math.nan},
        {"cost_volunteer": math.inf},
        {"cost_failure": math.nan},
        {"cost_failure": math.inf},
        {"shared_reward": math.nan},
        {"shared_reward": math.inf},
    ],
)
def test_rejects_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        TruthGameParams(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [("n_regular", 100.0), ("n_regular", True), ("threshold", 6.5), ("threshold", 6.0)],
)
def test_rejects_counts_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TruthGameParams(**{field: value})


def test_accepts_numpy_integer_counts():
    p = TruthGameParams(n_regular=np.int64(100), threshold=np.int32(6))
    assert net_payoff_regular(0.3, p) == net_payoff_regular(0.3, BASELINE)


def test_nonstandard_cost_ordering_needs_opt_in():
    p = TruthGameParams(cost_volunteer=0.9, cost_failure=0.5, allow_nonstandard=True)
    assert p.cost_volunteer == 0.9


# ---------------------------------------------------------- one realized count
# At x = 0 no co-player volunteers and at x = 1 every one does, so exact
# enumeration weighs one profile with weight 1: the game's rule for one count.


def test_individual_volunteer_at_quorum():
    # the sixth of six volunteers meets threshold 6; its reward share 5/6
    # and its fee 5/6 cancel, so it keeps 1 - c
    pair = enumerate_truth_exact(TruthGameParams(n_regular=6), 1.0)
    assert pair.volunteer_avg == pytest.approx(0.5, abs=1e-15)


def test_individual_volunteer_below_quorum():
    pair = enumerate_truth_exact(TruthGameParams(n_regular=6), 0.0)
    assert pair.volunteer_avg == pytest.approx(-0.4, abs=1e-15)


def test_individual_defector_when_nobody_volunteers():
    pair = enumerate_truth_exact(TruthGameParams(n_regular=6, threshold=1), 0.0)
    assert pair.defector_avg == pytest.approx(0.1, abs=1e-15)


def test_individual_defector_on_success():
    # six co-volunteers meet threshold 6; without a reward pot there is no fee
    pair = enumerate_truth_exact(TruthGameParams(n_regular=7, shared_reward=0.0), 1.0)
    assert pair.defector_avg == 1.0


# ---------------------------------------------------------------- averages


def test_volunteer_avg_certain_success_without_reward():
    # threshold 1 means a volunteer always succeeds on its own
    p = TruthGameParams(threshold=1, shared_reward=0.0)
    for x in (0.0, 0.3, 1.0):
        assert avg_payoff_volunteer(x, p) == pytest.approx(0.5, abs=1e-15)


def test_volunteer_avg_full_participation_reward_washes_out():
    # with everyone in, the reward share equals the fee: sigma/N each way
    assert avg_payoff_volunteer(1.0, BASELINE) == pytest.approx(0.5, abs=1e-15)


def test_volunteer_avg_lone_volunteer_collects_pot():
    p = TruthGameParams(threshold=1)
    # 1 - 0.5 + 5/1 - 5/100
    assert avg_payoff_volunteer(0.0, p) == 5.45


def test_defector_avg_at_zero_participation():
    assert avg_payoff_defector(0.0, BASELINE) == pytest.approx(0.1, abs=1e-15)


def test_defector_avg_full_participation_pays_fee():
    assert avg_payoff_defector(1.0, BASELINE) == 0.95


def test_defector_avg_two_player_coin_flip():
    p = TruthGameParams(n_regular=2, threshold=1, shared_reward=0.0)
    got = avg_payoff_defector(0.5, p)
    assert got == pytest.approx(0.55, abs=1e-12)
    # independent check by profile enumeration
    pair = enumerate_truth_exact(p, 0.5)
    assert got == pytest.approx(pair.defector_avg, abs=1e-12)


@pytest.mark.parametrize("n", [2, 7, 1023, 1024, 10**4, 10**6])
def test_gains_match_the_whole_array_formula_bit_for_bit(n):
    """payoff_pair_regular builds its gains only at the counts mix asks
    for; they equal the gain arrays over all j = 0..n-1 written out from
    the model (README), bit for bit. k = 1 and k = n are the edges where
    one of the below-threshold prefixes is empty or the whole row."""
    xs = np.array([0.0, 5e-324, 8e-6, 0.3, 1.0])
    for k in sorted({1, min(6, n), n}):
        p = TruthGameParams(n_regular=n, threshold=k)
        c, a, s = p.cost_volunteer, p.cost_failure, p.shared_reward
        volunteer = np.full(n, 1.0 - c - a)
        volunteer[k - 1 :] = 1.0 - c + s / np.arange(k, n + 1.0) - s / n
        defector = np.full(n, 1.0 - s / n)
        defector[:k] = 1.0 - a
        whole = np.array([volunteer, defector])
        want = mix(lambda m: whole[:, m], n - 1, xs)
        pair = payoff_pair_regular(xs, p)
        assert np.array_equal(pair.volunteer_avg, want[0]), k
        assert np.array_equal(pair.defector_avg, want[1]), k
        assert np.array_equal(pair.net, want[0] - want[1]), k


# ---------------------------------------------------------------- net payoff


def test_net_at_zero_is_minus_volunteer_cost():
    # with threshold >= 2 a lone volunteer changes nothing
    assert net_payoff_regular(0.0, BASELINE) == -0.5


def test_net_at_one():
    assert net_payoff_regular(1.0, BASELINE) == pytest.approx(-0.45, abs=1e-15)


def test_net_small_near_operating_point():
    assert abs(net_payoff_regular(0.09, BASELINE)) < 0.05


def test_pair_net_is_difference():
    for x in (0.0, 0.09, 0.5, 1.0):
        pair = payoff_pair_regular(x, BASELINE)
        assert pair.net == pair.volunteer_avg - pair.defector_avg
        assert pair.volunteer_avg == avg_payoff_volunteer(x, BASELINE)
        assert pair.defector_avg == avg_payoff_defector(x, BASELINE)


def test_rejects_out_of_range_mixing():
    with pytest.raises(ValueError):
        net_payoff_regular(1.2, BASELINE)
    with pytest.raises(ValueError):
        avg_payoff_volunteer(-0.01, BASELINE)
    for bad in (np.array([0.1, math.nan]), np.array([0.5, 1.2])):
        with pytest.raises(ValueError):
            payoff_pair_regular(bad, BASELINE)


# ---------------------------------------------------------------- properties


def test_reduces_to_classic_closed_form():
    """No reward and threshold 1 collapse the net payoff to
    cost_failure * (1-x)^(n-1) - cost_volunteer."""
    p = TruthGameParams(threshold=1, shared_reward=0.0)
    for i in range(101):
        x = i / 100.0
        want = 0.9 * (1.0 - x) ** 99 - 0.5
        assert net_payoff_regular(x, p) == pytest.approx(want, abs=1e-12)


def test_volunteer_avg_non_decreasing_in_reward():
    for x in (0.0, 0.09, 0.4, 0.9):
        values = [
            avg_payoff_volunteer(x, TruthGameParams(shared_reward=float(s)))
            for s in range(9)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_volunteer_avg_strictly_increasing_in_reward_when_success_possible():
    # at x > 0 the success event has positive probability, so more pot helps
    values = [
        avg_payoff_volunteer(0.2, TruthGameParams(shared_reward=float(s)))
        for s in (0, 2, 5, 8)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (9, 9), (14, 5)])
@pytest.mark.parametrize("sigma", [0.0, 2.0])
@pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
def test_matches_exhaustive_enumeration(n, k, sigma, x):
    p = TruthGameParams(n_regular=n, threshold=k, shared_reward=sigma)
    pair = enumerate_truth_exact(p, x)
    assert avg_payoff_volunteer(x, p) == pytest.approx(pair.volunteer_avg, abs=1e-10)
    assert avg_payoff_defector(x, p) == pytest.approx(pair.defector_avg, abs=1e-10)


PIVOT_XS = np.array([1e-4, 0.01, 0.05, 0.09, 0.1003, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999])


@pytest.mark.parametrize("k", [1, 6, 8, 30, 100])
@pytest.mark.parametrize("sigma", [0.0, 5.0, 50.0])
def test_matches_the_exact_pivot_form_at_n_100(k, sigma):
    """The pair and the net at n = 100 against exact rationals of the
    pivot-probability forms. The bound is 1e-13 times the payoff's size
    where that exceeds 1: at k = 1, sigma = 50, x = 0.01 the volunteer
    payoff is 31.7, a mixture of gains up to 50, and is off by 1.1e-13."""
    p = TruthGameParams(n_regular=100, threshold=k, shared_reward=sigma)
    pair = payoff_pair_regular(PIVOT_XS, p)
    net = net_payoff_regular(PIVOT_XS, p)
    for i, x in enumerate(PIVOT_XS.tolist()):
        volunteer, defector, exact_net = exact_regular_payoffs(p, x)
        assert exact_net == volunteer - defector
        for got, want in (
            (pair.volunteer_avg[i], volunteer),
            (pair.defector_avg[i], defector),
            (pair.net[i], exact_net),
            (net[i], exact_net),
        ):
            error = abs(Fraction(float(got)) - want)
            assert error <= 1e-13 * max(1.0, abs(want)), (x, float(error))


def test_net_is_continuous_on_dense_grid():
    step = 1e-6
    for i in range(101):
        x = i / 100.0
        hi = min(x + step, 1.0)
        jump = abs(net_payoff_regular(hi, BASELINE) - net_payoff_regular(x, BASELINE))
        assert jump <= 1e-3


def test_payoffs_stay_in_natural_band():
    # base payoff 1, worst case loses both costs, best case adds the pot
    p = BASELINE
    lo = 1.0 - p.cost_volunteer - p.cost_failure
    hi = 1.0 + p.shared_reward
    for i in range(51):
        x = i / 50.0
        assert lo <= avg_payoff_volunteer(x, p) <= hi
        assert lo <= avg_payoff_defector(x, p) <= hi
