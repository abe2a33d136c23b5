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
