"""Exact engine vs the brute-force oracle."""

import math
import random
import subprocess
import sys
import pytest
from hypothesis import given, settings, strategies as st

from simvc import full_cube, is_shattered, k_sparse, lifted_vc, vc_exact, vc_naive
from simvc.engine import _columns
from simvc.space import LOAD_DOMAIN_SIZE_CAP, restrict

from conftest import bit_space, module_env, run_python, spaces, subsets_of


def reference_columns(rows, width):
    """The plain transpose, one bit at a time: bit i of column j is bit j of rows[i]."""
    return tuple(
        sum(((h >> j) & 1) << i for i, h in enumerate(rows)) for j in range(width)
    )


class TestColumns:
    # widths on both sides of each 8-column lane, up to the widest file a space loads from;
    # 256 rows fill one byte of a column exactly, and 255 and 257 miss it by one
    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 24, LOAD_DOMAIN_SIZE_CAP])
    def test_columns_match_the_bit_by_bit_transpose(self, width):
        rng = random.Random(width)
        for count in (1, 255, 256, 257):
            # the all-ones row sets every lane's top bit; the rest are random, repeats allowed
            rows = ((1 << width) - 1,) + tuple(rng.getrandbits(width) for _ in range(count - 1))
            assert _columns(rows, width) == reference_columns(rows, width)


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
        assert vc_naive(full_cube(2)) == (2, (0, 1))

    def test_k_sparse_one(self):
        assert vc_naive(k_sparse(3, 1)) == (1, (0,))

    def test_two_constant_hypotheses(self):
        # singletons shattered; no pair realizes pattern 01
        assert vc_naive(bit_space(3, ["000", "111"])) == (1, (0,))


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


class TestWitnessRecheck:
    """Each search re-checks its witness, so a wrong search result cannot escape."""

    def test_vc_exact_rejects_an_unshattered_witness(self, monkeypatch):
        # k_sparse(3, 1) never labels 11 on (0, 1)
        monkeypatch.setattr("simvc.engine._search", lambda *args: (0, 1))
        with pytest.raises(AssertionError):
            vc_exact(k_sparse(3, 1))

    def test_lifted_vc_rejects_a_triangle(self, monkeypatch):
        # ranks 0, 1, 2 of n = 3 are the triangle (0,1), (0,2), (1,2); no lift shatters a cycle
        monkeypatch.setattr("simvc.similarity._search", lambda *args: (0, 1, 2))
        with pytest.raises(AssertionError):
            lifted_vc(full_cube(3))

    def test_rechecks_survive_python_O(self):
        # python -O strips assert statements; the re-checks must still fail
        cases = [
            ("simvc.engine._search = lambda *args: (0, 1)", "vc_exact(k_sparse(3, 1))"),
            ("simvc.similarity._search = lambda *args: (0, 1, 2)", "lifted_vc(full_cube(3))"),
            # one orbit of one space, where n = 2 has 15 spaces
            (
                "simvc.experiments._orbit_masks = lambda n: [(1, 1)]",
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
        # every set of the 12-cube is shattered, and the search has no cap: its
        # counting bound alone ends it at the first set of size log2 |H|; a
        # search without the bound takes minutes, so run it in a child
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

    def test_wide_random_spaces_finish(self):
        # values from the search without the counting bound, which took 37 s
        # at (16, 64) and did not finish (24, 64) in 90 s; the two 128-row
        # cells are from the search that tested the bound only on entry; (24, 64)
        # runs as `vc verify --input` runs it, bracket checks included
        code = (
            "from simvc import lifted_vc, random_space, vc_exact, verify_theorem\n"
            "for n, size in ((12, 64), (16, 32), (16, 64), (16, 128), (20, 128)):\n"
            "    space = random_space(n, size, 7)\n"
            "    print(vc_exact(space))\n"
            "    print(lifted_vc(space))\n"
            "report = verify_theorem(random_space(24, 64, 7))\n"
            "print(report.lower_ok and report.upper_ok)\n"
        )
        lines = run_python(code, timeout=60).splitlines()
        assert lines[:-1] == [
            repr((5, (0, 1, 6, 10, 11))),
            repr((5, ((0, 1), (0, 2), (0, 3), (0, 6), (8, 11)))),
            repr((4, (0, 1, 2, 8))),
            repr((4, ((0, 1), (0, 2), (0, 3), (0, 8)))),
            repr((5, (0, 2, 9, 10, 15))),
            repr((5, ((0, 1), (0, 2), (0, 3), (0, 6), (5, 12)))),
            repr((5, (0, 1, 2, 3, 4))),
            repr((6, ((0, 1), (0, 2), (0, 3), (0, 10), (5, 13), (11, 12)))),
            repr((6, (2, 5, 9, 11, 13, 18))),
            repr((6, ((0, 1), (0, 2), (0, 3), (0, 9), (4, 12), (13, 18)))),
        ]
        assert lines[-1] == "True"
