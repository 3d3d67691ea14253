"""Closed-form bounds: the paper's upper-bound argument and its constants.

A t-edge forest shattered by the lift has at most min(n, 2t) vertices, and
Sauer–Shelah caps the patterns a space of VC dimension d takes there, so
2^t <= Phi_d(min(n, 2t)).  ``forest_cap`` is the largest t that inequality
allows.  The paper loosens it with an entropy estimate to the bracket of
``theorem_bounds``, which floors 4.55 d as 91 d // 20 so floor comparisons
are exact.  ``solve_optimal_delta`` returns the float pair (epsilon, delta)
behind that factor: the bisected root of H(epsilon) = 1/2 and
delta = 1/(2 epsilon).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .space import check_range


def _sauer_sum(n: int, d: int) -> int:
    """Phi_d(n) = sum_{k<=d} C(n, k), one running sum."""
    term = total = 1
    for k in range(1, min(n, d) + 1):
        term = term * (n - k + 1) // k
        total += term
    return total


def forest_cap(n: int, d: int) -> int:
    """max{t <= n - 1 : 2^t <= Phi_d(min(n, 2t))}: the lifted VC bound on [n] at VC d.

    The scan stops at the first t that fails, so it costs O(d^2) whatever n
    is and never builds 2^n.  Each (n, d) is scanned once; the arguments are
    checked first, so the cache holds only valid keys and never takes 3.0 or
    True for the key 3 or 1.
    """
    check_range("n", n, 1)
    check_range("d", d, 0, n)
    return _forest_cap(n, d)


@lru_cache(maxsize=1024)
def _forest_cap(n: int, d: int) -> int:
    t = 0
    while t < n - 1 and 1 << (t + 1) <= _sauer_sum(min(n, 2 * t + 2), d):
        t += 1
    return t


def binary_entropy(eps: float) -> float:
    """H(eps) = eps*log2(1/eps) + (1-eps)*log2(1/(1-eps)); endpoints are 0."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"entropy argument {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return eps * math.log2(1.0 / eps) + (1.0 - eps) * math.log2(1.0 / (1.0 - eps))


def theorem_bounds(d: int) -> "tuple[int, int]":
    """(lower, upper) bracket for the lifted VC dimension of a space with VC d.

    lower = max(d - 1, 0); upper = floor(4.55 * d), computed as floor(91*d/20)
    since the lifted dimension is an integer.
    """
    check_range("d", d, 0)
    # 4.55 as the exact rational 91/20
    return max(d - 1, 0), 91 * d // 20


def solve_optimal_delta() -> "tuple[float, float]":
    """Best constants this argument allows: bisect H(eps) = 1/2 on (0, 1/2).

    Bisection keeps H < 1/2 at the left end and runs until the two ends are
    adjacent floats.  Returns ``(epsilon, delta)`` with epsilon that left
    end, the last float below the root, so H(epsilon) < 1/2 holds exactly
    and delta = 1/(2*epsilon) is a hair above the optimum.
    """
    lo, hi = 1e-9, 0.5
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if binary_entropy(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return lo, 1.0 / (2.0 * lo)


def urner_bound(d: int) -> float:
    """Comparison curve 2d*log2(2d); smaller than floor(4.55d) only for d <= 2."""
    check_range("d", d, 1)
    return 2.0 * d * math.log2(2.0 * d)
