"""Property tests of the binomial-mixture payoffs on random small games.

The regular and fake averages are checked against the brute-force
profile enumerators, and the tail-mode identity against an exact
rational binomial tail. The nets' own gain sequences are checked to rise
and then fall. Examples are derandomized and capped, so the suite stays
deterministic and quick.
"""

import numpy as np
from exact_binomial import exact_tail_above
from hypothesis import given, settings
from hypothesis import strategies as st

from vodgame import fake, truth
from vodgame.fake import (
    FakeGameParams,
    TailMode,
    expected_fake_payoffs,
    expected_net_payoff_fake,
)
from vodgame.oracle import enumerate_fake_exact, enumerate_truth_exact
from vodgame.truth import TruthGameParams, payoff_pair_regular

TOL = 1e-12  # the suite's tolerance on payoffs
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

probabilities = st.floats(0.0, 1.0)


@st.composite
def truth_games(draw, max_n: int = 12, nonstandard: bool = False) -> TruthGameParams:
    n = draw(st.integers(2, max_n))
    c = draw(st.floats(0.01, 0.9))
    allow = nonstandard and draw(st.booleans())  # then cost_failure <= c is valid too
    return TruthGameParams(
        n_regular=n,
        threshold=draw(st.integers(1, n)),
        cost_volunteer=c,
        cost_failure=draw(st.floats(0.01 if allow else c + 0.01, 2.0)),
        shared_reward=draw(st.floats(0.0, 20.0)),
        allow_nonstandard=allow,
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
    # a known turnout is M ~ Binomial(turnout, 1), or Binomial(1, 0) for 0
    want = enumerate_fake_exact(params, turnout, x_f)
    got = expected_fake_payoffs(x_f, float(turnout > 0), max(turnout, 1), params)
    assert abs(got.volunteer_avg - want.volunteer_avg) <= TOL
    assert abs(got.defector_avg - want.defector_avg) <= TOL


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


def _sign_changes(seq) -> list[tuple[float, float]]:
    """The (from, to) signs of each sign change along seq, zeros skipped."""
    signs = np.sign(seq)
    signs = signs[signs != 0]
    at = np.flatnonzero(signs[1:] != signs[:-1])
    return list(zip(signs[at].tolist(), signs[at + 1].tolist()))


def _assert_rises_then_falls(gains):
    """At most one sign change in the gains' differences, never from - to
    +, and at most two in the gains: the sequence rises and then falls, so
    its Bernstein mixture, the net, has at most two roots in (0, 1)."""
    assert _sign_changes(np.diff(gains)) in ([], [(1.0, -1.0)])
    assert len(_sign_changes(gains)) <= 2


SHAPE = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@SHAPE
@given(params=truth_games(max_n=2000, nonstandard=True))
def test_regular_net_gains_rise_then_fall(params):
    _assert_rises_then_falls(truth._net_gains(params)(np.arange(params.n_regular))[0])


@SHAPE
@given(
    params=fake_games(300),
    p_star=probabilities,
    n_regular=st.integers(1, 2000),
    tail=st.sampled_from(TailMode),
)
def test_fake_net_gains_rise_then_fall(params, p_star, n_regular, tail):
    weights = fake._turnout(p_star, n_regular, params, tail)
    _assert_rises_then_falls(fake._net_gains(weights, params)(np.arange(params.n_fake))[0])
