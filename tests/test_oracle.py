"""Monte Carlo and enumeration backends.

The recombination test rebuilds the documented chunk scheme (PCG64 per
chunk, seeded with (seed, index), 65536 trials per chunk) from scratch
with plain numpy and checks the streamed statistics against the
one-shot ones.
"""

import math
import statistics

import numpy as np
import pytest

from vodgame.fake import FakeGameParams, expected_fake_payoffs
from vodgame.oracle import (
    CHUNK_TRIALS,
    enumerate_fake_exact,
    enumerate_truth_exact,
    simulate_fake,
    simulate_truth,
)
from vodgame.truth import (
    TruthGameParams,
    avg_payoff_defector,
    avg_payoff_volunteer,
)

BASELINE = TruthGameParams()
FAKE = FakeGameParams()


# ---------------------------------------------------------------- determinism


def test_same_seed_reproduces_bit_for_bit():
    a = simulate_truth(BASELINE, 0.09, 50_000, seed=3)
    b = simulate_truth(BASELINE, 0.09, 50_000, seed=3)
    assert a == b


def test_fake_same_seed_reproduces_bit_for_bit():
    a = simulate_fake(0.09, 100, FAKE, 0.5, 50_000, seed=3)
    b = simulate_fake(0.09, 100, FAKE, 0.5, 50_000, seed=3)
    assert a == b


def test_different_seed_moves_the_estimate():
    a = simulate_truth(BASELINE, 0.09, 50_000, seed=3)
    b = simulate_truth(BASELINE, 0.09, 50_000, seed=4)
    assert a.volunteer_avg_hat != b.volunteer_avg_hat


@pytest.mark.parametrize("trials", [1, 100, CHUNK_TRIALS, CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 17])
def test_chunk_boundaries_are_seamless(trials):
    r = simulate_truth(BASELINE, 0.09, trials, seed=5)
    assert r.trials == trials
    assert math.isfinite(r.volunteer_avg_hat)
    assert r.volunteer_se >= 0.0
    assert r.defector_se >= 0.0


def test_streaming_matches_flat_numpy_reference():
    """Feeding chunks through the running combine must equal computing
    mean and SE on the concatenated draws in one shot."""
    p = BASELINE
    seed, trials, x = 7, 150_001, 0.09
    sizes = [CHUNK_TRIALS] * (trials // CHUNK_TRIALS)
    if trials % CHUNK_TRIALS:
        sizes.append(trials % CHUNK_TRIALS)
    parts_v, parts_d = [], []
    for i, size in enumerate(sizes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        m = rng.binomial(p.n_regular - 1, x, size=size)
        parts_v.append(
            np.where(
                m >= p.threshold - 1,
                (1.0 - p.cost_volunteer)
                + p.shared_reward / (m + 1.0)
                - p.shared_reward / p.n_regular,
                1.0 - p.cost_volunteer - p.cost_failure,
            )
        )
        parts_d.append(
            np.where(
                m >= p.threshold,
                1.0 - p.shared_reward / p.n_regular,
                1.0 - p.cost_failure,
            )
        )
    flat_v = np.concatenate(parts_v)
    flat_d = np.concatenate(parts_d)
    got = simulate_truth(p, x, trials, seed)
    assert got.volunteer_avg_hat == pytest.approx(float(flat_v.mean()), abs=1e-13)
    assert got.defector_avg_hat == pytest.approx(float(flat_d.mean()), abs=1e-13)
    assert got.volunteer_se == pytest.approx(
        math.sqrt(flat_v.var(ddof=1) / trials), rel=1e-9
    )
    assert got.defector_se == pytest.approx(
        math.sqrt(flat_d.var(ddof=1) / trials), rel=1e-9
    )


@pytest.mark.parametrize("strict", [False, True], ids=["ties", "strict_dominance"])
def test_fake_streaming_matches_flat_numpy_reference(strict):
    """simulate_fake draws each chunk's regular turnout before the peers'
    volunteer count; the same draws scored in one shot with plain numpy
    give the same mean and SE, with ties to the fakes or without."""
    p = FakeGameParams(strict_dominance=strict)
    seed, trials, p_star, n_regular, x_f = 7, 150_001, 0.04, 100, 0.5
    lead = 1 if strict else 0  # how many more volunteers a win needs
    sizes = [CHUNK_TRIALS] * (trials // CHUNK_TRIALS)
    if trials % CHUNK_TRIALS:
        sizes.append(trials % CHUNK_TRIALS)
    parts_v, parts_d = [], []
    for i, size in enumerate(sizes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        m = rng.binomial(n_regular, p_star, size=size)
        k = rng.binomial(p.n_fake - 1, x_f, size=size)
        assert np.any(k + 1 == m) and np.any(k == m)  # ties occur
        parts_v.append(
            np.where(
                k + 1 >= m + lead,
                1.0 - p.cost_volunteer_fake,
                1.0 - p.cost_volunteer_fake - p.cost_failure,
            )
        )
        parts_d.append(np.where(k >= m + lead, 1.0, 1.0 - p.cost_failure))
    flat_v = np.concatenate(parts_v)
    flat_d = np.concatenate(parts_d)
    got = simulate_fake(p_star, n_regular, p, x_f, trials, seed)
    assert got.volunteer_avg_hat == pytest.approx(float(flat_v.mean()), abs=1e-13)
    assert got.defector_avg_hat == pytest.approx(float(flat_d.mean()), abs=1e-13)
    assert got.volunteer_se == pytest.approx(
        math.sqrt(flat_v.var(ddof=1) / trials), rel=1e-9
    )
    assert got.defector_se == pytest.approx(
        math.sqrt(flat_d.var(ddof=1) / trials), rel=1e-9
    )


# ---------------------------------------------------------------- degenerate


def test_lone_volunteer_point_is_exact():
    p = TruthGameParams(threshold=1)
    r = simulate_truth(p, 0.0, 10_000, seed=0)
    assert r.volunteer_avg_hat == 5.45
    assert r.volunteer_avg_hat == avg_payoff_volunteer(0.0, p)
    assert r.volunteer_se == 0.0


def test_full_participation_point_is_exact():
    r = simulate_truth(BASELINE, 1.0, 10_000, seed=0)
    assert r.defector_avg_hat == 0.95
    assert r.defector_avg_hat == avg_payoff_defector(1.0, BASELINE)
    assert r.defector_se == 0.0
    assert r.volunteer_se == 0.0


def test_fake_sim_with_no_regular_turnout_is_exact():
    r = simulate_fake(0.0, 100, FAKE, 0.5, 1_000, seed=0)
    assert r.volunteer_avg_hat == 0.9
    assert r.defector_avg_hat == 1.0
    assert r.volunteer_avg_hat - r.defector_avg_hat == pytest.approx(-0.1, abs=1e-15)
    assert r.volunteer_se == 0.0 and r.defector_se == 0.0


def test_fake_sim_certain_wall_is_exact():
    r = simulate_fake(1.0, 100, FAKE, 0.5, 1_000, seed=0)
    net = r.volunteer_avg_hat - r.defector_avg_hat
    assert net == pytest.approx(-0.1, abs=1e-15)
    assert r.volunteer_se == 0.0 and r.defector_se == 0.0


# ---------------------------------------------------------------- agreement


def test_truth_estimates_land_near_analytic():
    r = simulate_truth(BASELINE, 0.09, 200_000, seed=11)
    zv = (r.volunteer_avg_hat - avg_payoff_volunteer(0.09, BASELINE)) / r.volunteer_se
    zd = (r.defector_avg_hat - avg_payoff_defector(0.09, BASELINE)) / r.defector_se
    assert abs(zv) <= 3.0
    assert abs(zd) <= 3.0


def test_fake_estimates_land_near_analytic_full_mode():
    r = simulate_fake(0.09, 100, FAKE, 0.5, 200_000, seed=11)
    pair = expected_fake_payoffs(0.5, 0.09, 100, FAKE)
    zv = (r.volunteer_avg_hat - pair.volunteer_avg) / r.volunteer_se
    zd = (r.defector_avg_hat - pair.defector_avg) / r.defector_se
    assert abs(zv) <= 3.0
    assert abs(zd) <= 3.0


def test_paired_draws_tighten_the_net_estimate():
    """Scoring both roles on one draw correlates the estimates; the net
    difference then scatters less across seeds than when the roles come
    from unrelated runs."""
    trials, n_seeds = 16_384, 32
    same, crossed = [], []
    runs = [simulate_truth(BASELINE, 0.09, trials, seed=s) for s in range(n_seeds)]
    other = [simulate_truth(BASELINE, 0.09, trials, seed=1000 + s) for s in range(n_seeds)]
    for r, q in zip(runs, other):
        same.append(r.volunteer_avg_hat - r.defector_avg_hat)
        crossed.append(r.volunteer_avg_hat - q.defector_avg_hat)
    assert statistics.variance(same) < statistics.variance(crossed)


# ---------------------------------------------------------------- enumeration


def test_two_player_game_by_hand():
    p = TruthGameParams(n_regular=2, threshold=1, shared_reward=0.0)
    pair = enumerate_truth_exact(p, 0.5)
    assert pair.volunteer_avg == pytest.approx(0.5, abs=1e-15)
    assert pair.defector_avg == pytest.approx(0.55, abs=1e-15)


def test_zero_mixing_reduces_to_single_profile():
    p = TruthGameParams(n_regular=14, threshold=5, shared_reward=2.0)
    pair = enumerate_truth_exact(p, 0.0)
    # the lone volunteer misses the quorum of 5; so does the defector
    assert pair.volunteer_avg == 1.0 - 0.5 - 0.9
    assert pair.defector_avg == 1.0 - 0.9


def test_enumeration_agrees_with_analytic_averages():
    p = TruthGameParams(n_regular=14, threshold=5, shared_reward=2.0)
    pair = enumerate_truth_exact(p, 0.3)
    assert pair.volunteer_avg == pytest.approx(avg_payoff_volunteer(0.3, p), abs=1e-10)
    assert pair.defector_avg == pytest.approx(avg_payoff_defector(0.3, p), abs=1e-10)


def test_fake_enumeration_trivial_cases():
    # the profile weights only sum to 1 up to rounding, so these are
    # 1e-12 checks rather than identities
    pair = enumerate_fake_exact(FAKE, 0, 0.37)
    assert pair.volunteer_avg == pytest.approx(0.9, abs=1e-12)
    assert pair.defector_avg == pytest.approx(1.0, abs=1e-12)
    lone = enumerate_fake_exact(FakeGameParams(n_fake=1), 1, 0.9)
    assert lone.volunteer_avg == 0.9  # single empty profile, weight exactly 1


def test_size_limits_are_enforced():
    with pytest.raises(ValueError):
        enumerate_truth_exact(TruthGameParams(n_regular=17), 0.5)
    with pytest.raises(ValueError):
        enumerate_fake_exact(FakeGameParams(n_fake=17), 3, 0.5)


def test_simulation_input_validation():
    with pytest.raises(ValueError):
        simulate_truth(BASELINE, 0.09, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_truth(BASELINE, 1.5, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_fake(0.09, 0, FAKE, 0.5, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_fake(0.09, 100, FAKE, -0.2, 100, seed=1)


# ---------------------------------------------------------------- independence


def test_oracles_never_call_the_kernel_they_check(monkeypatch):
    """With the binomial-mixture kernel and both games' gains made to
    raise, every oracle still returns its value bit for bit."""
    calls = [
        lambda: simulate_truth(BASELINE, 0.09, 70_000, seed=2),
        lambda: simulate_fake(0.04, 100, FakeGameParams(strict_dominance=True), 0.5, 70_000, seed=2),
        lambda: enumerate_truth_exact(TruthGameParams(n_regular=14, threshold=5, shared_reward=2.0), 0.3),
        lambda: enumerate_fake_exact(FAKE, 4, 0.37),
    ]
    expected = [call() for call in calls]

    def kernel(*args, **kwargs):
        raise AssertionError("an oracle called the kernel it checks")

    for target in (
        "vodgame.numerics.mix",
        "vodgame.truth.mix",
        "vodgame.fake.mix",
        "vodgame.truth.payoff_pair_regular",
        "vodgame.fake._gains",
    ):
        monkeypatch.setattr(target, kernel)
    with pytest.raises(AssertionError):
        avg_payoff_volunteer(0.3, BASELINE)
    with pytest.raises(AssertionError):
        expected_fake_payoffs(0.5, 0.04, 100, FAKE)
    assert [call() for call in calls] == expected
