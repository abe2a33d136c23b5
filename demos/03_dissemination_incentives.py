"""The other side of the board: when does pushing fakes pay?

Eight fake-news agents decide whether to pay 0.1 to push an item. The
push dominates the news cycle when the pushers at least match the
regular volunteers, whose count is binomial with the regular agents'
equilibrium probability p*. This script traces the expected net payoff
of joining the push as a function of the push probability x_f, for
several values of p* and under both turnout-averaging modes.

Run: python3 demos/03_dissemination_incentives.py
"""

import math
from fractions import Fraction

from vodgame import (
    FakeGameParams,
    TailMode,
    expected_net_payoff_fake,
    find_equilibria,
)

fparams = FakeGameParams()
N = 100
PSTARS = (0.04, 0.06, 0.08, 0.10)


def summarize(tail):
    print(f"[{tail.value} turnout averaging]")
    print(f"{'p*':>6} {'max net':>10} {'at x_f':>8} {'first crossing':>15} {'regime':>16}")
    for p_star in PSTARS:
        report = find_equilibria(
            lambda x: expected_net_payoff_fake(x, p_star, N, fparams, tail)
        )
        # the max net is read on the search's own 2048-point scan grid
        at, peak = report.peak
        first = f"{report.equilibria[0].x:.6f}" if report.equilibria else "none"
        print(f"{p_star:6.2f} {peak:10.6f} {at:8.4f} {first:>15} {report.regime:>16}")
    print()


summarize(TailMode.FULL)
summarize(TailMode.TRUNCATED)

print("Higher regular turnout pushes the break-even point to the right:")
print("the fakes need a larger coordinated push before joining pays at")
print("all. Under full averaging the best achievable net also shrinks")
print("monotonically; under truncation it does not, because truncation")
print("throws away exactly the losing high-turnout outcomes.")
print()

# The two modes differ by a known closed form: truncation discards the
# turnouts above the fake group size, where the push surely fails and a
# participant is down by exactly the entry cost. P[turnout > n_fake] is
# summed here in exact rationals, independently of the payoff kernel.
p_star, x_f = 0.08, 0.4
gap = expected_net_payoff_fake(
    x_f, p_star, N, fparams, TailMode.TRUNCATED
) - expected_net_payoff_fake(x_f, p_star, N, fparams, TailMode.FULL)
p = Fraction(p_star)
kept = sum(math.comb(N, m) * p**m * (1 - p) ** (N - m) for m in range(fparams.n_fake + 1))
predicted = fparams.cost_volunteer_fake * float(1 - kept)
print(f"tail gap at p*={p_star}, x_f={x_f}: {gap:.12f}")
print(f"cost * P[turnout > {fparams.n_fake}]:    {predicted:.12f}")
