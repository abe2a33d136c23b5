"""Exact binomial probabilities for the tests, independent of the kernel.

Each value is a big-integer rational (math.comb plus Fraction on the
binary value of x), so no check here trusts lgamma to check lgamma.
"""

import math
from fractions import Fraction


def exact_pmf(n: int, m: int, x: float) -> Fraction:
    """Binomial pmf as an exact rational, taking x at its binary value."""
    p = Fraction(x)
    return math.comb(n, m) * p**m * (1 - p) ** (n - m)


def exact_tail_above(n: int, f: int, x: float) -> float:
    """P[M > f] for M ~ Binomial(n, x), rounded once from the exact value.

    With x = a / d exactly, the mass at or below f is an integer over
    d^n, so the sum stays in integers and one true division rounds it.
    """
    a, d = x.as_integer_ratio()
    below = sum(math.comb(n, m) * a**m * (d - a) ** (n - m) for m in range(min(f, n) + 1))
    return (d**n - below) / d**n


def exact_tail_at_least(n: int, k: int, x: float) -> Fraction:
    """P[M >= k] for M ~ Binomial(n, x) as an exact rational."""
    a, d = x.as_integer_ratio()
    above = sum(math.comb(n, m) * a**m * (d - a) ** (n - m) for m in range(k, n + 1))
    return Fraction(above, d**n)


def exact_regular_payoffs(params, x: float) -> tuple[Fraction, Fraction, Fraction]:
    """Volunteer, defector and net payoffs of the validation game at
    0 < x < 1, as exact rationals, through the pivot probability
    (Diekmann 1985, "Volunteer's Dilemma"). With C(n-1, m)/(m+1) =
    C(n, m+1)/n the reward share sums to sigma/(n x) P[Bin(n, x) >= k]:

    - net: -c + (alpha - sigma/n) b(k-1; n-1, x) + sigma/(n x) P[Bin(n, x) >= k]
    - defector: (1-alpha) + (alpha - sigma/n) P[Bin(n-1, x) >= k]
    - volunteer: (1-c-alpha) + (alpha - sigma/n) P[Bin(n-1, x) >= k-1]
      + sigma/(n x) P[Bin(n, x) >= k]

    The net is written in its own form, not as volunteer minus defector.
    """
    n, k = params.n_regular, params.threshold
    c, alpha = Fraction(params.cost_volunteer), Fraction(params.cost_failure)
    sigma = Fraction(params.shared_reward)
    pivot = alpha - sigma / n
    share = sigma / (n * Fraction(x)) * exact_tail_at_least(n, k, x)
    volunteer = (1 - c - alpha) + pivot * exact_tail_at_least(n - 1, k - 1, x) + share
    defector = (1 - alpha) + pivot * exact_tail_at_least(n - 1, k, x)
    net = -c + pivot * exact_pmf(n - 1, k - 1, x) + share
    return volunteer, defector, net


def exact_fake_net(params, n: int, p_star: float, x_f: float, truncated: bool) -> Fraction:
    """The dissemination game's net at x_f against a regular turnout
    M ~ Binomial(n, p_star), as an exact rational through the pivot
    probability: with J ~ Binomial(f-1, x_f) peers, a focal fake
    volunteer turns a loss into a win iff M = J + 1 - s, so

    - net: sum_j b(j; f-1, x_f) (alpha P[M = j+1-s] - cf T)

    where s is 1 under strict dominance and 0 otherwise, and T is the
    turnout mass the average counts: 1, or P[M <= f] when truncated.
    """
    f, s = params.n_fake, 1 if params.strict_dominance else 0
    alpha, cf = Fraction(params.cost_failure), Fraction(params.cost_volunteer_fake)
    total = sum(exact_pmf(n, m, p_star) for m in range(f + 1)) if truncated else 1
    return sum(
        exact_pmf(f - 1, j, x_f) * (alpha * exact_pmf(n, j + 1 - s, p_star) - cf * total)
        for j in range(f)
    )
