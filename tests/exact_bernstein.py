"""Exact sign certificates for Bernstein polynomials on [0, 1].

A net payoff is a binomial mixture of its per-count gains g[m], so it
is the Bernstein polynomial sum_m g[m] C(N, m) x^m (1 - x)^(N - m) of
degree N = len(g) - 1 with coefficients g. Its values on [a, b] are
convex combinations of the coefficients of its restriction to [a, b],
so a piece whose coefficients are all negative is negative throughout.
De Casteljau subdivision at t = 1/2 gives the two halves' coefficients
exactly: the gains are fractions.Fraction, and the subdivision runs on
their integer multiples. Nothing here shares code with the kernel it
checks.
"""

import math
from fractions import Fraction


def regular_net_coefficients(n: int, k: int, c, alpha, sigma) -> list[Fraction]:
    """The validation game's net gains over m = 0..n-1 co-volunteers, as
    exact rationals: -c below the quorum, alpha - c + sigma/k - sigma/n
    when the focal volunteer is pivotal (m = k - 1), sigma/(m+1) - c
    once the quorum is met without them."""
    c, alpha, sigma = Fraction(c), Fraction(alpha), Fraction(sigma)
    return [
        -c if m < k - 1
        else alpha - c + sigma / k - sigma / n if m == k - 1
        else sigma / (m + 1) - c
        for m in range(n)
    ]


def bernstein_value(coeffs, x) -> Fraction:
    """The polynomial at x, exactly."""
    x = Fraction(x)
    degree = len(coeffs) - 1
    return sum(
        b * math.comb(degree, m) * x**m * (1 - x) ** (degree - m) for m, b in enumerate(coeffs)
    )


def halves(coeffs) -> tuple[list[int], list[int]]:
    """The integer coefficients of the polynomial on the left and the
    right half of its interval, times 2^degree: de Casteljau's averaging
    at t = 1/2 with each halving deferred, so integers stay integers and
    the positive factor keeps every sign."""
    degree = len(coeffs) - 1
    row = list(coeffs)
    left, right = [row[0]], [row[-1]]
    while len(row) > 1:
        row = [a + b for a, b in zip(row, row[1:])]
        left.append(row[0])
        right.append(row[-1])
    left = [b << degree - j for j, b in enumerate(left)]
    right = [b << j for j, b in enumerate(reversed(right))]
    return left, right


def _integers(coeffs) -> list[int]:
    # the coefficients times their common denominator: integers of the same signs
    scale = math.lcm(*(Fraction(b).denominator for b in coeffs))
    return [int(b * scale) for b in coeffs]


def negative_pieces(coeffs, max_pieces: int = 64):
    """Dyadic pieces (lo, hi) of [0, 1], on each of which every
    coefficient is negative, which together prove the polynomial
    negative on all of [0, 1]. None when a piece's end value is >= 0,
    so no proof exists, or when max_pieces would not suffice.

    The rational coefficients are scaled once by their common
    denominator, so the subdivision runs on exact integers."""
    todo = [(Fraction(0), Fraction(1), _integers(coeffs))]
    proved = []
    pieces = 1
    while todo:
        lo, hi, piece = todo.pop()
        if piece[0] >= 0 or piece[-1] >= 0:
            return None  # the polynomial's value at lo or at hi
        if all(b < 0 for b in piece):
            proved.append((lo, hi))
            continue
        if pieces == max_pieces:
            return None
        pieces += 1
        mid = (lo + hi) / 2
        left, right = halves(piece)
        todo += [(mid, hi, right), (lo, mid, left)]
    return sorted(proved)


def root_pieces(coeffs, max_pieces: int = 256):
    """Dyadic pieces (lo, hi) of [0, 1] that isolate the polynomial's
    roots in (0, 1), one root inside each, in increasing order. None
    when the polynomial is 0 at 0, at 1 or at a cut, or when max_pieces
    would not suffice, as at a double root.

    The count of roots inside a piece is at most the count V of sign
    changes of its coefficients, and of V's parity (Descartes' rule in
    the Bernstein basis). So a piece with V = 0, such as one whose
    coefficients are all negative, holds no root, and a piece with
    V = 1, whose end values then have opposite signs, holds exactly
    one; any other piece is halved."""
    todo = [(Fraction(0), Fraction(1), _integers(coeffs))]
    roots = []
    pieces = 1
    while todo:
        lo, hi, piece = todo.pop()
        if piece[0] == 0 or piece[-1] == 0:
            return None  # the polynomial's value at lo or at hi
        signs = [b > 0 for b in piece if b != 0]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        if changes <= 1:
            roots += [(lo, hi)] * changes
            continue
        if pieces == max_pieces:
            return None
        pieces += 1
        mid = (lo + hi) / 2
        left, right = halves(piece)
        todo += [(mid, hi, right), (lo, mid, left)]
    return roots
