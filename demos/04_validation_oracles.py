"""Checking the formulas against two independent computations.

The closed-form averages rest on binomial tail sums. Two backends keep
them honest: a seeded Monte Carlo simulation that plays the game
literally, and an exact enumeration that walks every co-player profile
for small populations. This script runs both and prints the agreement.

Run: python3 demos/04_validation_oracles.py
"""

from vodgame import (
    FakeGameParams,
    TruthGameParams,
    enumerate_truth_exact,
    expected_fake_payoffs,
    payoff_pair_regular,
    simulate_fake,
    simulate_truth,
)

params = TruthGameParams()
x = 0.09

print("Monte Carlo, one million trials, validation game at x = 0.09")
result = simulate_truth(params, x, trials=1_000_000, seed=2024)
pair = payoff_pair_regular(x, params)
for role, hat, se, want in (
    ("volunteer", result.volunteer_avg_hat, result.volunteer_se, pair.volunteer_avg),
    ("defector ", result.defector_avg_hat, result.defector_se, pair.defector_avg),
):
    z = (hat - want) / se
    print(f"  {role}: simulated {hat:.6f} +- {se:.6f}, formula {want:.6f}, z = {z:+.2f}")
print("  (same seed always reproduces these digits exactly)")
print()

print("Monte Carlo, dissemination game at p* = 0.09, x_f = 0.5")
fparams = FakeGameParams()
fresult = simulate_fake(0.09, 100, fparams, 0.5, trials=1_000_000, seed=2024)
fpair = expected_fake_payoffs(0.5, 0.09, 100, fparams)
for role, hat, se, want in (
    ("volunteer", fresult.volunteer_avg_hat, fresult.volunteer_se, fpair.volunteer_avg),
    ("defector ", fresult.defector_avg_hat, fresult.defector_se, fpair.defector_avg),
):
    z = (hat - want) / se
    print(f"  {role}: simulated {hat:.6f} +- {se:.6f}, formula {want:.6f}, z = {z:+.2f}")
print()

print("Exact enumeration, 14-agent validation game (8192 profiles each)")
small = TruthGameParams(n_regular=14, threshold=5, shared_reward=2.0)
for xi in (0.2, 0.5, 0.8):
    exact, formula = enumerate_truth_exact(small, xi), payoff_pair_regular(xi, small)
    dv = abs(exact.volunteer_avg - formula.volunteer_avg)
    dd = abs(exact.defector_avg - formula.defector_avg)
    print(f"  x = {xi}: |enumeration - formula| = {dv:.2e} (volunteer), {dd:.2e} (defector)")
print()
print("The enumeration weights every profile by x^v (1-x)^(13-v) with no")
print("binomial shortcut, so the agreement is a genuine cross-check, not")
print("the same formula computed twice.")
