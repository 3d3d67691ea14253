"""Closed-form bound arithmetic."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simvc import (
    SimvcError,
    binary_entropy,
    binom_partial_sum,
    entropy_sum_holds,
    sauer_guaranteed_vc,
    solve_optimal_delta,
    theorem_bounds,
    urner_bound,
)

from conftest import run_python


class TestBinomPartialSum:
    def test_examples(self):
        assert binom_partial_sum(4, 1) == 5
        assert binom_partial_sum(4, 4) == 16
        assert binom_partial_sum(10, 3) == 176  # 1 + 10 + 45 + 120

    def test_m_beyond_n_saturates(self):
        assert binom_partial_sum(4, 9) == 16

    def test_exact_for_wide_rows(self):
        # C(64, 32) alone overflows 64 bits; the sum must stay exact
        assert binom_partial_sum(64, 64) == 1 << 64

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_sum(self, n, m):
        assert binom_partial_sum(n, m) == sum(
            math.comb(n, k) for k in range(min(n, m) + 1)
        )


class TestSauer:
    def test_examples(self):
        assert sauer_guaranteed_vc(6, 4) == 2  # 6 > 5 but 6 <= 11
        for n in (1, 3, 5):
            assert sauer_guaranteed_vc(1 << n, n) == n
        assert sauer_guaranteed_vc(1, 5) == 0

    def test_invalid_query(self):
        with pytest.raises(SimvcError, match=r"space_size 17 exceeds 2\^4 possible hypotheses"):
            sauer_guaranteed_vc(17, 4)

    def test_wide_domain_builds_no_power_of_two(self):
        # 2^(10^8) alone would take 12.5 MB
        tracemalloc.start()
        try:
            assert sauer_guaranteed_vc(3, 10**8) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_answer_in_one_pass(self):
        # C(4000, k) summed to k = 1999 is just below 2^3999; recomputing the
        # partial sum at every step takes minutes here, so run it in a child
        code = "from simvc import sauer_guaranteed_vc; print(sauer_guaranteed_vc(2**3999, 4000))"
        assert run_python(code, timeout=60) == "2000\n"

    @given(st.integers(0, 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_definition(self, n, data):
        size = data.draw(st.integers(1, 1 << n))
        m = sauer_guaranteed_vc(size, n)
        if m > 0:
            assert size > binom_partial_sum(n, m - 1)
        assert size <= binom_partial_sum(n, m)


class TestBinaryEntropy:
    def test_examples(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        value = binary_entropy(0.11)
        assert value == pytest.approx(0.4999, abs=5e-4)
        assert value < 0.5

    def test_out_of_range(self):
        with pytest.raises(SimvcError, match=r"entropy argument -0.1 outside \[0, 1\]"):
            binary_entropy(-0.1)
        with pytest.raises(SimvcError, match=r"entropy argument 1.1 outside \[0, 1\]"):
            binary_entropy(1.1)

    def test_symmetry_and_maximum_on_grid(self):
        for i in range(1, 100):
            eps = i / 100
            assert binary_entropy(eps) == pytest.approx(
                binary_entropy(1 - eps), abs=1e-12
            )
            assert binary_entropy(eps) <= 1.0


class TestEntropySum:
    def test_example_10_03(self):
        check = entropy_sum_holds(10, 0.3)
        assert check.lhs == 176
        assert check.rhs == pytest.approx(449.73, abs=0.01)
        assert check.holds

    def test_tiny_n(self):
        check = entropy_sum_holds(1, 0.49)
        assert check.lhs == 1
        assert check.holds

    def test_epsilon_011_at_n20(self):
        assert entropy_sum_holds(20, 0.11).holds

    def test_out_of_range(self):
        with pytest.raises(SimvcError, match="eps 0.5 outside the open interval"):
            entropy_sum_holds(10, 0.5)
        with pytest.raises(SimvcError, match="n must be at least 1"):
            entropy_sum_holds(0, 0.3)

    def test_grid(self):
        for n in range(1, 21):
            for i in range(1, 50):
                assert entropy_sum_holds(n, i / 100).holds


class TestTheoremBounds:
    def test_examples(self):
        assert theorem_bounds(2) == (1, 9)
        assert theorem_bounds(0) == (0, 0)
        assert theorem_bounds(1) == (0, 4)

    def test_negative_rejected(self):
        with pytest.raises(SimvcError, match="d must be non-negative"):
            theorem_bounds(-1)

    @given(st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_floor_matches_exact_rational(self, d):
        lower, upper = theorem_bounds(d)
        assert lower <= upper
        assert upper == math.floor(Fraction(91, 20) * d)


class TestOptimalDelta:
    def test_solution(self):
        epsilon, delta = solve_optimal_delta(1e-9)
        assert epsilon == pytest.approx(0.110028, abs=1e-5)
        assert binary_entropy(epsilon) < 0.5
        assert abs(binary_entropy(epsilon) - 0.5) <= 1e-8
        assert 4.54 < delta < 4.55
        assert delta == 1.0 / (2.0 * epsilon)

    def test_rounded_constant_is_valid_and_near_optimal(self):
        # 1/(2 * 0.11) = 4.5454... rounds up to 4.55, and the optimum is below it
        assert 1.0 / (2.0 * 0.11) == pytest.approx(4.5454, abs=1e-3)
        assert solve_optimal_delta(1e-9)[1] < 4.55

    def test_tolerance_must_be_positive(self):
        with pytest.raises(SimvcError, match="tolerance must be positive"):
            solve_optimal_delta(0.0)


class TestUrnerBound:
    def test_examples(self):
        assert urner_bound(1) == 2.0
        assert urner_bound(2) == 8.0
        assert urner_bound(8) == 64.0

    def test_out_of_range(self):
        with pytest.raises(SimvcError, match="d must be at least 1"):
            urner_bound(0)

    def test_crossover_with_linear_bound(self):
        # smaller than floor(4.55 d) only for d <= 2
        for d in (1, 2):
            assert urner_bound(d) < theorem_bounds(d)[1]
        for d in range(3, 30):
            assert urner_bound(d) > theorem_bounds(d)[1]
