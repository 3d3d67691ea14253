"""Exact engine vs the brute-force oracle."""

import math
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from simvc import (
    SimvcError,
    enumerate_spaces,
    full_cube,
    is_shattered,
    k_sparse,
    lift_space,
    lifted_vc,
    pair_domain,
    random_space,
    restrict,
    splitmix64_stream,
    vc_exact,
    vc_naive,
)

from conftest import bit_space, module_env, run_python, spaces, subsets_of


class TestVcExact:
    def test_single_hypothesis(self):
        assert vc_exact(bit_space(4, ["0110"])) == (0, ())

    def test_full_cube(self):
        assert vc_exact(full_cube(3))[0] == 3

    def test_k_sparse(self):
        assert vc_exact(k_sparse(5, 2))[0] == 2

    def test_witness_is_lex_smallest_maximum(self):
        # (0,) and (1,) shatter but the columns 2,3 only reach 3 patterns
        space = bit_space(4, ["0000", "0100", "1000", "1101"])
        assert vc_exact(space) == (2, (0, 1))

    def test_empty_domain_space(self):
        space = restrict(bit_space(2, ["00", "11"]), ())
        assert vc_exact(space)[0] == 0


class TestVcNaive:
    def test_full_cube(self):
        assert vc_naive(full_cube(2)) == 2

    def test_k_sparse_one(self):
        assert vc_naive(k_sparse(3, 1)) == 1

    def test_two_constant_hypotheses(self):
        # singletons shattered; no pair realizes pattern 01
        assert vc_naive(bit_space(3, ["000", "111"])) == 1

    def test_oracle_domain_cap(self):
        with pytest.raises(SimvcError, match="oracle requires domain_size <= 20, got 21"):
            vc_naive(bit_space(21, ["0" * 21, "1" * 21]))


class TestOracleEquivalence:
    def test_exhaustive_small_domains(self):
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                assert vc_exact(space)[0] == vc_naive(space)

    def test_seeded_random_spaces(self):
        rng = splitmix64_stream(2024)
        for _ in range(300):
            n = 2 + next(rng) % 9  # 2..10
            size = 1 + next(rng) % min(1 << n, 24)
            space = random_space(n, size, next(rng))
            assert vc_exact(space)[0] == vc_naive(space)

    def test_large_random_sample_n4(self):
        rng = splitmix64_stream(41)
        for _ in range(400):
            space = random_space(4, 1 + next(rng) % 16, next(rng))
            assert vc_exact(space)[0] == vc_naive(space)


class TestEngineInvariants:
    @given(spaces())
    @settings(max_examples=60, deadline=None)
    def test_log2_bound_and_sauer_floor(self, space):
        d = vc_exact(space)[0]
        assert d <= len(space).bit_length() - 1
        # Sauer–Shelah: a space of VC dimension d has at most Phi_d(n) members
        assert len(space) <= sum(math.comb(space.domain_size, k) for k in range(d + 1))

    @given(spaces(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_restriction_monotone(self, space, data):
        subset = data.draw(subsets_of(space.domain_size))
        assert vc_exact(restrict(space, subset))[0] <= vc_exact(space)[0]

    @given(spaces(max_n=5, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_witness_subset_is_shattered_at_dimension(self, space):
        d, subset = vc_exact(space)
        assert len(subset) == d
        assert is_shattered(space, subset)
        assert len(restrict(space, subset)) == 1 << d


def first_maximum(space):
    """The first largest shattered subset in lexicographic order, by brute force."""
    for m in range(space.domain_size, -1, -1):
        for subset in combinations(range(space.domain_size), m):
            if is_shattered(space, subset):
                return m, subset


def _oracle_spaces(max_n, count, seed):
    """Every space with n <= 3, then ``count`` seeded random spaces with 2 <= n <= max_n."""
    for n in (1, 2, 3):
        yield from enumerate_spaces(n)
    rng = splitmix64_stream(seed)
    for _ in range(count):
        n = 2 + next(rng) % (max_n - 1)
        yield random_space(n, 1 + next(rng) % min(1 << n, 40), next(rng))


class TestWitnessOracle:
    """Both witnesses against ``first_maximum``, which never calls the engine."""

    def test_vc_exact(self, five_halves_space):
        for space in _oracle_spaces(8, 200, 77):
            assert vc_exact(space) == first_maximum(space)
        assert vc_exact(five_halves_space) == first_maximum(five_halves_space)

    def test_lifted_vc(self):
        # the pair ranks of n <= 5 give at most 10 columns
        for space in _oracle_spaces(5, 200, 78):
            if space.domain_size < 2:
                continue
            d, ranks = first_maximum(lift_space(space))
            pairs = pair_domain(space.domain_size)
            assert lifted_vc(space) == (d, tuple(pairs[r] for r in ranks))


class TestWitnessRecheck:
    """Each search re-checks its witness, so a wrong search result cannot escape."""

    def test_vc_exact_rejects_an_unshattered_witness(self, monkeypatch):
        # k_sparse(3, 1) never labels 11 on (0, 1)
        monkeypatch.setattr("simvc.engine._largest", lambda *args: (0, 1))
        with pytest.raises(AssertionError):
            vc_exact(k_sparse(3, 1))

    def test_lifted_vc_rejects_a_triangle(self, monkeypatch):
        # ranks 0, 1, 2 of n = 3 are the triangle (0,1), (0,2), (1,2); no lift shatters a cycle
        monkeypatch.setattr("simvc.similarity._largest", lambda *args: (0, 1, 2))
        with pytest.raises(AssertionError):
            lifted_vc(full_cube(3))

    def test_rechecks_survive_python_O(self):
        # python -O strips assert statements; the re-checks must still fail
        cases = [
            ("simvc.engine._largest = lambda *args: (0, 1)", "vc_exact(k_sparse(3, 1))"),
            ("simvc.similarity._largest = lambda *args: (0, 1, 2)", "lifted_vc(full_cube(3))"),
            # one orbit of one space, where n = 2 has 15 spaces
            (
                "simvc.experiments.exhaustive_orbits = lambda n: [(full_cube(n), 1)]",
                "exhaustive_search(2)",
            ),
            # d = 1 on n = 3 caps d_sim at forest_cap(3, 1) = 2
            (
                "simvc.experiments.lifted_vc = lambda space: (9, ())",
                "verify_theorem(k_sparse(3, 1))",
            ),
        ]
        for patch, call in cases:
            code = (
                "import simvc.engine, simvc.experiments, simvc.similarity\n"
                "from simvc import (\n"
                "    exhaustive_search, full_cube, k_sparse, lifted_vc, vc_exact, verify_theorem,\n"
                ")\n"
                f"{patch}\n"
                f"print({call})\n"
            )
            proc = subprocess.run(
                [sys.executable, "-O", "-c", code],
                capture_output=True, text=True, env=module_env(), timeout=60,
            )
            assert proc.returncode != 0, proc.stdout
            assert "AssertionError" in proc.stderr


class TestSearchBound:
    def test_full_cube_stops_at_the_log2_bound(self):
        # every set of the 12-cube is shattered; a search that looks past the
        # first set of size limit takes minutes, so run it in a child
        code = (
            "from simvc import full_cube, lifted_vc, vc_exact\n"
            "cube = full_cube(12)\n"
            "print(vc_exact(cube))\n"
            "print(lifted_vc(cube))\n"
        )
        lines = run_python(code, timeout=60).splitlines()
        assert lines == [
            repr((12, tuple(range(12)))),
            repr((11, tuple((0, j) for j in range(1, 12)))),
        ]
