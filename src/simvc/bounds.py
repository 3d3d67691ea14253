"""Closed-form combinatorial bounds.

Everything here is exact where it can be: binomial sums use arbitrary
precision integers, the factor in the upper bound is handled as the rational
91/20 so floor comparisons are unambiguous, and floor(eps * n) recovers the
intended rational from a float before flooring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SimvcError

#: Upper-bound factor of the similarity-VC bound, as an exact rational.
DELTA = Fraction(91, 20)


def binom_partial_sum(n: int, m: int) -> int:
    """Exact sum of C(n, k) for k = 0..min(m, n)."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    return sum(math.comb(n, k) for k in range(min(m, n) + 1))


def sauer_guaranteed_vc(space_size: int, domain_size: int) -> int:
    """Largest m with space_size > sum_{k<m} C(domain_size, k); 0 if none.

    This is the growth-function lower bound on the VC dimension: a space too
    large to be m-1-dimensional must shatter some m-element set.
    """
    if space_size < 1:
        raise ValueError("space_size must be at least 1")
    if domain_size < 0:
        raise ValueError("domain_size must be non-negative")
    if space_size > (1 << domain_size):
        raise SimvcError(
            f"space_size {space_size} exceeds 2^{domain_size} possible hypotheses"
        )
    best = 0
    m = 1
    while m <= domain_size + 1 and space_size > binom_partial_sum(domain_size, m - 1):
        best = m
        m += 1
    return best


def binary_entropy(eps: float) -> float:
    """H(eps) = eps*log2(1/eps) + (1-eps)*log2(1/(1-eps)); endpoints are 0."""
    if not 0.0 <= eps <= 1.0:
        raise SimvcError(f"entropy argument {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return eps * math.log2(1.0 / eps) + (1.0 - eps) * math.log2(1.0 / (1.0 - eps))


@dataclass(frozen=True, slots=True)
class EntropySumCheck:
    """Both sides of the binomial-tail inequality and its truth value."""

    n: int
    eps: float
    lhs: int
    rhs: float
    holds: bool


def entropy_sum_holds(n: int, eps: float) -> EntropySumCheck:
    """Check sum_{i<=floor(eps*n)} C(n, i) <= 2^(H(eps)*n) for 0 < eps < 1/2.

    The left side is exact; floor(eps * n) is computed on the rational that
    the float ``eps`` denotes (grid values like 0.3 are decimal fractions),
    so the cutoff never suffers a one-ulp slip.
    """
    if n < 1:
        raise SimvcError("n must be at least 1")
    if not 0.0 < eps < 0.5:
        raise SimvcError(f"eps {eps} outside the open interval (0, 1/2)")
    cutoff = int(Fraction(eps).limit_denominator(10**9) * n)
    lhs = binom_partial_sum(n, cutoff)
    rhs = 2.0 ** (binary_entropy(eps) * n)
    return EntropySumCheck(n, eps, lhs, rhs, lhs <= rhs)


def theorem_bounds(d: int) -> "tuple[int, int]":
    """(lower, upper) bracket for the lifted VC dimension of a space with VC d.

    lower = max(d - 1, 0); upper = floor(4.55 * d), computed as floor(91*d/20)
    since the lifted dimension is an integer.
    """
    if d < 0:
        raise SimvcError("d must be non-negative")
    return max(d - 1, 0), (d * DELTA.numerator) // DELTA.denominator


@dataclass(frozen=True, slots=True)
class BoundConstants:
    """A valid (epsilon, delta) pair for the upper-bound argument.

    Requires H(epsilon) < 1/2; delta = 1/(2*epsilon) is then the factor the
    argument yields.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise SimvcError(f"epsilon {self.epsilon} outside (0, 1/2)")
        if binary_entropy(self.epsilon) >= 0.5:
            raise ValueError(f"H({self.epsilon}) >= 1/2: epsilon does not satisfy the condition")
        if self.delta <= 1.0:
            raise ValueError("delta must exceed 1")

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "BoundConstants":
        return cls(epsilon, 1.0 / (2.0 * epsilon))


def solve_optimal_delta(tolerance: float = 1e-9) -> BoundConstants:
    """Best constants this argument allows: bisect H(eps) = 1/2 on (0, 1/2).

    Bisection stops once the bracket is no wider than ``tolerance`` or no
    float lies strictly inside it.  Returns the left end of the final
    bracket, so H(epsilon) < 1/2 holds exactly and delta = 1/(2*epsilon) is
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
    return BoundConstants.from_epsilon(lo)


def urner_bound(d: int) -> float:
    """Comparison curve 2d*log2(2d); smaller than floor(4.55d) only for d <= 2."""
    if d < 1:
        raise SimvcError("d must be at least 1")
    return 2.0 * d * math.log2(2.0 * d)
