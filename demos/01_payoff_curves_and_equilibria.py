"""Walk through the validation game at its reference parameters.

One hundred agents each see a news item. Volunteering to validate it
costs 0.5; if fewer than six volunteer, validation fails and everyone
loses 0.9; on success a reward pot of 5 is split among the volunteers,
funded by a 0.05 per-capita fee. This script samples the average
payoffs of a volunteer and of a defector across the volunteering
probability x, then locates the points where neither role has an edge.

Run: python3 demos/01_payoff_curves_and_equilibria.py
"""

from vodgame import (
    TruthGameParams,
    find_equilibria,
    net_payoff_regular,
    payoff_pair_regular,
    sample_curve,
)

params = TruthGameParams()
print("parameters:", params)
print()

# A coarse sample is enough to see the shape: volunteering is a losing
# move when nobody else shows up, briefly profitable in a narrow band,
# and mildly losing again once success is already assured without you.
xs, pair = sample_curve(lambda x: payoff_pair_regular(x, params), points=21)
print(f"{'x':>6} {'volunteer':>12} {'defector':>12} {'net':>12}")
for x, v, d, n in zip(xs, pair.volunteer_avg, pair.defector_avg, pair.net):
    marker = "  <-- net > 0" if n > 0 else ""
    print(f"{x:6.2f} {v:12.6f} {d:12.6f} {n:12.6f}{marker}")
print()

report = find_equilibria(lambda x: net_payoff_regular(x, params))
print("regime:", report.regime)
for e in report.equilibria:
    print(f"  equilibrium at x = {e.x:.6f}  slope {e.slope:+9.4f}  -> {e.stability}")
print()
print("The smaller root repels: below it, volunteering drains value and")
print("participation collapses to zero. The larger root attracts: small")
print("deviations are pushed back, so the population can sit there.")
print()

# The same machinery answers what-if questions. Cut the reward to 3 and
# the profitable band disappears entirely.
low = TruthGameParams(shared_reward=3.0)
low_report = find_equilibria(lambda x: net_payoff_regular(x, low))
print("with shared_reward=3:", low_report.regime, "(no equilibria)")

# Raise the required quorum to 9 and the same thing happens: the odds
# of being the pivotal volunteer become too slim to pay for.
big = TruthGameParams(threshold=9)
big_report = find_equilibria(lambda x: net_payoff_regular(x, big))
print("with threshold=9:    ", big_report.regime, "(no equilibria)")
