"""Closed-form combinatorial bounds.

``theorem_bounds`` floors 4.55 d as 91 d // 20, so floor comparisons are
exact.  ``solve_optimal_delta`` returns the float pair (epsilon, delta)
behind that factor: the bisected root of H(epsilon) = 1/2 and
delta = 1/(2 epsilon).
"""

from __future__ import annotations

import math

from .errors import SimvcError


def sauer_guaranteed_vc(space_size: int, domain_size: int) -> int:
    """Largest m with space_size > sum_{k<m} C(domain_size, k); 0 if none.

    This is the growth-function lower bound on the VC dimension: a space too
    large to be m-1-dimensional must shatter some m-element set.
    """
    if space_size < 1:
        raise ValueError("space_size must be at least 1")
    if domain_size < 0:
        raise ValueError("domain_size must be non-negative")
    # space_size > 2^domain_size, without building 2^domain_size
    if (space_size - 1) >> domain_size:
        raise SimvcError(
            f"space_size {space_size} exceeds 2^{domain_size} possible hypotheses"
        )
    # below = sum_{k<=m} C(domain_size, k), one running sum; it reaches
    # 2^domain_size >= space_size at m = domain_size, which ends the loop
    m, term, below = 0, 1, 1
    while space_size > below:
        m += 1
        term = term * (domain_size - m + 1) // m
        below += term
    return m


def binary_entropy(eps: float) -> float:
    """H(eps) = eps*log2(1/eps) + (1-eps)*log2(1/(1-eps)); endpoints are 0."""
    if not 0.0 <= eps <= 1.0:
        raise SimvcError(f"entropy argument {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return eps * math.log2(1.0 / eps) + (1.0 - eps) * math.log2(1.0 / (1.0 - eps))


def theorem_bounds(d: int) -> "tuple[int, int]":
    """(lower, upper) bracket for the lifted VC dimension of a space with VC d.

    lower = max(d - 1, 0); upper = floor(4.55 * d), computed as floor(91*d/20)
    since the lifted dimension is an integer.
    """
    if d < 0:
        raise SimvcError("d must be non-negative")
    # 4.55 as the exact rational 91/20
    return max(d - 1, 0), 91 * d // 20


def solve_optimal_delta(tolerance: float) -> "tuple[float, float]":
    """Best constants this argument allows: bisect H(eps) = 1/2 on (0, 1/2).

    Bisection stops once the bracket is no wider than ``tolerance`` or no
    float lies strictly inside it.  Returns ``(epsilon, delta)`` with
    epsilon the left end of the final bracket, which bisection keeps where
    H < 1/2, so H(epsilon) < 1/2 holds exactly and delta = 1/(2*epsilon) is
    a hair above the optimum.
    """
    if not 0 < tolerance < math.inf:
        raise SimvcError(f"tolerance must be positive and finite, got {tolerance}")
    lo, hi = 1e-9, 0.5
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if binary_entropy(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return lo, 1.0 / (2.0 * lo)


def urner_bound(d: int) -> float:
    """Comparison curve 2d*log2(2d); smaller than floor(4.55d) only for d <= 2."""
    if d < 1:
        raise SimvcError("d must be at least 1")
    return 2.0 * d * math.log2(2.0 * d)
