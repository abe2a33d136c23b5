"""Property tests of the binomial-mixture payoffs on random small games.

The regular and fake averages are checked against the brute-force
profile enumerators, and the tail-mode identity against an exact
rational binomial tail. Examples are derandomized and capped, so the
suite stays deterministic and quick.
"""

from exact_binomial import exact_tail_above
from hypothesis import given, settings
from hypothesis import strategies as st

from vodgame.fake import (
    FakeGameParams,
    TailMode,
    avg_payoff_fake_defector,
    avg_payoff_fake_volunteer,
    expected_net_payoff_fake,
)
from vodgame.oracle import enumerate_fake_exact, enumerate_truth_exact
from vodgame.truth import TruthGameParams, payoff_pair_regular

TOL = 1e-12  # the suite's tolerance on payoffs
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

probabilities = st.floats(0.0, 1.0)


@st.composite
def truth_games(draw) -> TruthGameParams:
    n = draw(st.integers(2, 12))
    c = draw(st.floats(0.01, 0.9))
    return TruthGameParams(
        n_regular=n,
        threshold=draw(st.integers(1, n)),
        cost_volunteer=c,
        cost_failure=draw(st.floats(c + 0.01, 2.0)),
        shared_reward=draw(st.floats(0.0, 20.0)),
    )


@st.composite
def fake_games(draw, max_n_fake: int) -> FakeGameParams:
    cf = draw(st.floats(0.01, 0.9))
    return FakeGameParams(
        n_fake=draw(st.integers(1, max_n_fake)),
        cost_volunteer_fake=cf,
        cost_failure=draw(st.floats(cf + 0.01, 2.0)),
        strict_dominance=draw(st.booleans()),
    )


@DETERMINISTIC
@given(params=truth_games(), x=probabilities)
def test_regular_payoffs_match_enumeration(params, x):
    got = payoff_pair_regular(x, params)
    want = enumerate_truth_exact(params, x)
    assert abs(got.volunteer_avg - want.volunteer_avg) <= TOL
    assert abs(got.defector_avg - want.defector_avg) <= TOL
    assert abs(got.net - want.net) <= TOL


@DETERMINISTIC
@given(params=fake_games(10), turnout=st.integers(0, 12), x_f=probabilities)
def test_fake_payoffs_against_turnout_match_enumeration(params, turnout, x_f):
    want = enumerate_fake_exact(params, turnout, x_f)
    assert abs(avg_payoff_fake_volunteer(x_f, turnout, params) - want.volunteer_avg) <= TOL
    assert abs(avg_payoff_fake_defector(x_f, turnout, params) - want.defector_avg) <= TOL


@DETERMINISTIC
@given(
    params=fake_games(20),
    p_star=probabilities,
    n_regular=st.integers(1, 200),
    x_f=probabilities,
)
def test_truncated_minus_full_is_the_discarded_mass(params, p_star, n_regular, x_f):
    gap = expected_net_payoff_fake(
        x_f, p_star, n_regular, params, TailMode.TRUNCATED
    ) - expected_net_payoff_fake(x_f, p_star, n_regular, params, TailMode.FULL)
    discarded = exact_tail_above(n_regular, params.n_fake, p_star)
    assert abs(gap - params.cost_volunteer_fake * discarded) <= TOL
