"""Closed-form bound arithmetic."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simvc import forest_cap, solve_optimal_delta, theorem_bounds
from simvc.bounds import binary_entropy, urner_bound

from conftest import entropy_sum, run_python


def capped_by_definition(n, d):
    """max{t <= n - 1 : 2^t <= Phi_d(min(n, 2t))}, trying every t."""
    return max(
        t for t in range(n) if 2**t <= sum(math.comb(min(n, 2 * t), k) for k in range(d + 1))
    )


def tree_partitions(v, largest=None):
    """Every forest shape on v vertices: its trees' vertex counts, each >= 2, non-increasing."""
    if v == 0:
        yield ()
        return
    for size in range(min(v, largest or v), 1, -1):
        for rest in tree_partitions(v - size, size):
            yield (size,) + rest


def capped_by_shape(n, d):
    """The largest edge count of a forest shape on <= n vertices whose every sub-forest counts.

    A sub-forest with t' edges on v' vertices needs 2^t' <= Phi_d(v').  Within
    a tree of s vertices, j edges touch at least j + 1 vertices (a subtree), and
    more vertices only raise Phi_d, so the sub-forests to test take j_i edges
    from tree i as one subtree: t' = sum j_i, v' = sum (j_i + 1) over j_i > 0.
    """
    def phi(v):
        return sum(math.comb(v, k) for k in range(d + 1))

    best = 0
    for v in range(n + 1):
        for shape in tree_partitions(v):
            sub = {(0, 0)}
            for s in shape:
                sub |= {(t + j, w + j + 1) for t, w in sub for j in range(1, s)}
            if all(2**t <= phi(w) for t, w in sub):
                best = max(best, v - len(shape))
    return best


class TestSauer:
    """``forest_cap``: Sauer–Shelah on a t-edge forest shattered by the lift."""

    def test_examples(self):
        # with n unbounded; floor(4.55 d) gives 4, 9, 13, 18, 22, 27
        assert [forest_cap(100, d) for d in range(1, 7)] == [2, 6, 10, 14, 19, 23]
        assert forest_cap(12, 2) == 6
        assert forest_cap(1, 0) == forest_cap(1, 1) == 0

    def test_wide_domain_builds_no_power_of_two(self):
        # 2^(10^8) alone would take 12.5 MB
        tracemalloc.start()
        try:
            assert forest_cap(10**8, 3) == 10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_answer_in_one_pass(self):
        # trying every t <= n - 1 takes hours at n = 10^9; the scan stops near
        # 4.55 d, so run it in a child with a deadline
        code = "from simvc import forest_cap; print(forest_cap(10**9, 300))"
        t = int(run_python(code, timeout=60))
        assert 2**t <= sum(math.comb(2 * t, k) for k in range(301))
        assert 2 ** (t + 1) > sum(math.comb(2 * t + 2, k) for k in range(301))
        assert t <= 91 * 300 // 20

    def test_definition(self):
        for n in range(1, 41):
            for d in range(n + 1):
                assert forest_cap(n, d) == capped_by_definition(n, d), (n, d)

    def test_equals_the_per_shape_cap(self):
        # testing every sub-forest of every shape prunes nothing that the
        # whole-forest count 2^t <= Phi_d(min(n, 2t)) allows
        for n in range(1, 21):
            for d in range(min(n, 5) + 1):
                assert forest_cap(n, d) == capped_by_shape(n, d), (n, d)

    def test_cache_keeps_the_checks(self):
        # the cache holds (3, 1) -> 2, and 3.0 or True would hit that key
        assert forest_cap(3, 1) == forest_cap(3, 1) == 2
        for n, d in ((3.0, 1), (3, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                forest_cap(n, d)
        # an invalid key never reaches the cache: each call raises the same error
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError) as info:
                forest_cap(3, 4)
            messages.append(str(info.value))
        assert messages == ["d must be in 0..3, got 4"] * 3

    def test_sharper_than_the_linear_bound(self):
        # 2 * floor(4.55 d) + 2 vertices hold a forest of floor(4.55 d) + 1 pairs
        for d in range(101):
            assert forest_cap(2 * (91 * d // 20) + 2, d) <= 91 * d // 20


class TestBinaryEntropy:
    def test_examples(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        value = binary_entropy(0.11)
        assert value == pytest.approx(0.4999, abs=5e-4)
        assert value < 0.5

    def test_symmetry_and_maximum_on_grid(self):
        for i in range(1, 100):
            eps = i / 100
            assert binary_entropy(eps) == pytest.approx(
                binary_entropy(1 - eps), abs=1e-12
            )
            assert binary_entropy(eps) <= 1.0


class TestEntropySum:
    def test_example_10_03(self):
        lhs, rhs = entropy_sum(10, 0.3)
        assert lhs == 176
        assert rhs == pytest.approx(449.73, abs=0.01)
        assert lhs <= rhs

    def test_tiny_n(self):
        lhs, rhs = entropy_sum(1, 0.49)
        assert lhs == 1
        assert lhs <= rhs

    def test_epsilon_011_at_n20(self):
        lhs, rhs = entropy_sum(20, 0.11)
        assert lhs <= rhs


class TestTheoremBounds:
    def test_examples(self):
        assert theorem_bounds(2) == (1, 9)
        assert theorem_bounds(0) == (0, 0)
        assert theorem_bounds(1) == (0, 4)

    @given(st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_floor_matches_exact_rational(self, d):
        lower, upper = theorem_bounds(d)
        assert lower <= upper
        assert upper == math.floor(Fraction(91, 20) * d)


class TestOptimalDelta:
    def test_solution(self):
        epsilon, delta = solve_optimal_delta()
        assert epsilon == pytest.approx(0.110028, abs=1e-5)
        # the last float below the root
        assert binary_entropy(epsilon) < 0.5 <= binary_entropy(math.nextafter(epsilon, 1))
        assert 4.54 < delta < 4.55
        assert delta == 1.0 / (2.0 * epsilon)

    def test_rounded_constant_is_valid_and_near_optimal(self):
        # 1/(2 * 0.11) = 4.5454... rounds up to 4.55, and the optimum is below it
        assert 1.0 / (2.0 * 0.11) == pytest.approx(4.5454, abs=1e-3)
        assert solve_optimal_delta()[1] < 4.55


class TestUrnerBound:
    def test_examples(self):
        assert urner_bound(1) == 2.0
        assert urner_bound(2) == 8.0
        assert urner_bound(8) == 64.0

    def test_crossover_with_linear_bound(self):
        # smaller than floor(4.55 d) only for d <= 2
        for d in (1, 2):
            assert urner_bound(d) < theorem_bounds(d)[1]
        for d in range(3, 30):
            assert urner_bound(d) > theorem_bounds(d)[1]
