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
