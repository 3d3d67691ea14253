"""Family generators and seeded streams."""

import math

import pytest

from simvc import (
    FamilySpec,
    enumerate_spaces,
    exhaustive_orbits,
    full_cube,
    k_sparse,
    lifted_vc,
    random_space,
    vc_exact,
)
from simvc.families import random_space_stream, spaces_for, splitmix64_stream


class TestKSparse:
    def test_small_example(self):
        assert k_sparse(3, 1).bit_strings() == ["000", "001", "010", "100"]

    def test_size_formula(self):
        assert len(k_sparse(5, 2)) == 16
        for n in range(1, 9):
            for k in range(n + 1):
                assert len(k_sparse(n, k)) == sum(math.comb(n, i) for i in range(k + 1))

    def test_k_equals_n_is_full_cube(self):
        assert k_sparse(4, 4) == full_cube(4)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match=r"k must be in 0\.\.3, got 4"):
            k_sparse(3, 4)
        with pytest.raises(ValueError, match=r"n must be in 1\.\.24, got 0"):
            k_sparse(0, 0)
        with pytest.raises(ValueError, match=r"k must be in 0\.\.3, got -1"):
            k_sparse(3, -1)


class TestFullCube:
    def test_tiny(self):
        assert full_cube(1).bit_strings() == ["0", "1"]

    def test_cube_shatters_everything(self):
        space = full_cube(3)
        assert len(space) == 8
        assert vc_exact(space)[0] == 3

    def test_invalid_params(self):
        with pytest.raises(ValueError, match=r"n must be in 1\.\.24, got 0"):
            full_cube(0)
        with pytest.raises(ValueError, match=r"n must be in 1\.\.24, got 25"):
            full_cube(25)


class TestRandomSpace:
    def test_full_size_forces_cube(self):
        assert random_space(4, 16, 7) == full_cube(4)

    def test_singleton(self):
        space = random_space(5, 1, 7)
        assert len(space) == 1
        assert vc_exact(space)[0] == 0

    def test_deterministic(self):
        assert random_space(6, 12, 42) == random_space(6, 12, 42)

    def test_different_seeds_usually_differ(self):
        assert random_space(8, 12, 1) != random_space(8, 12, 2)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match=r"size must be in 1\.\.2\^3, got 9"):
            random_space(3, 9, 0)
        with pytest.raises(ValueError, match=r"size must be in 1\.\.2\^3, got 0"):
            random_space(3, 0, 0)

    def test_seed_outside_64_bits_is_rejected(self):
        # SplitMix64 reduces its seed mod 2^64, so these would alias seeds 2^64-1 and 0
        for seed in (-1, 1 << 64):
            message = rf"^seed must be in 0\.\.2\^64-1, got {seed}$"
            with pytest.raises(ValueError, match=message):
                random_space(3, 2, seed)
            with pytest.raises(ValueError, match=message):
                random_space_stream(3, 2, 1, seed)
            with pytest.raises(ValueError, match=message):
                FamilySpec("random", 3, size=2, seed=seed)

    def test_stream_is_reproducible(self):
        a = list(random_space_stream(5, 6, 10, 99))
        b = list(random_space_stream(5, 6, 10, 99))
        assert a == b
        assert len({tuple(s.bit_strings()) for s in a}) > 1

    def test_stream_arguments_are_checked_at_the_call(self):
        with pytest.raises(ValueError, match="^samples must be at least 1, got 0$"):
            random_space_stream(3, 2, 0, 1)
        with pytest.raises(ValueError, match=r"^size must be in 1\.\.2\^3, got 9$"):
            random_space_stream(3, 9, 5, 1)


class TestSplitMix:
    def test_known_vector(self):
        # canonical splitmix64 outputs for seed 0 (0xE220A8397B1DCDAF, ...)
        stream = splitmix64_stream(0)
        first = [next(stream) for _ in range(3)]
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_64_bit_range(self):
        stream = splitmix64_stream(2**64 - 1)
        for _ in range(100):
            assert 0 <= next(stream) < 2**64


class TestEnumerateSpaces:
    def test_counts(self):
        assert sum(1 for _ in enumerate_spaces(1)) == 3
        assert sum(1 for _ in enumerate_spaces(2)) == 15
        assert sum(1 for _ in enumerate_spaces(3)) == 255

    def test_first_spaces_follow_binary_counting(self):
        stream = enumerate_spaces(1)
        assert next(stream).bit_strings() == ["0"]
        assert next(stream).bit_strings() == ["1"]
        assert next(stream).bit_strings() == ["0", "1"]

    def test_no_duplicates(self):
        seen = {tuple(s.bit_strings()) for s in enumerate_spaces(2)}
        assert len(seen) == 15

    def test_cap(self):
        with pytest.raises(ValueError, match="exhaustive enumeration caps at n = 4, got 5"):
            next(enumerate_spaces(5))

    def test_domain_is_checked_at_the_call(self):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            enumerate_spaces(0)
        with pytest.raises(ValueError, match="^exhaustive enumeration caps at n = 4, got 5$"):
            enumerate_spaces(5)


class TestExhaustiveOrbits:
    def test_counts_and_multiplicities(self):
        for n, orbits in ((1, 2), (2, 5), (3, 21), (4, 401)):
            pairs = list(exhaustive_orbits(n))
            assert len(pairs) == orbits
            assert sum(size for _, size in pairs) == (1 << (1 << n)) - 1

    def test_domain_is_checked_at_the_call(self):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            exhaustive_orbits(0)
        with pytest.raises(ValueError, match="^exhaustive enumeration caps at n = 4, got 5$"):
            exhaustive_orbits(5)


class TestFamilySpec:
    def test_round_trip(self):
        spec = FamilySpec("random", 6, size=10, seed=3)
        assert FamilySpec.from_dict(spec.to_dict()) == spec

    def test_aliases(self):
        assert FamilySpec.from_dict({"family": "ksparse", "n": 5, "k": 2}).kind == "k_sparse"
        assert FamilySpec.from_dict({"family": "cube", "n": 3}).kind == "full_cube"

    def test_missing_params(self):
        with pytest.raises(ValueError, match="k_sparse requires k"):
            FamilySpec("k_sparse", 5)
        with pytest.raises(ValueError, match="unknown family 'nope'"):
            FamilySpec.from_dict({"family": "nope", "n": 3})
        with pytest.raises(ValueError, match="family spec requires n"):
            FamilySpec.from_dict({"family": "cube"})
        # a parameter check inside the spec keeps its own message
        with pytest.raises(ValueError, match="^random requires size and seed$"):
            FamilySpec.from_dict({"family": "random", "n": 3, "size": 2})
        with pytest.raises(ValueError, match="malformed family spec"):
            FamilySpec.from_dict({"family": "cube", "n": "three"})
        # a misspelt or undocumented key is an error, not ignored
        for doc, key in (
            ({"family": "cube", "n": 4, "kk": 2}, "kk"),
            ({"family": "random", "n": 4, "size": 3, "seed": 1, "sed": 5}, "sed"),
            ({"kind": "cube", "n": 4}, "kind"),
        ):
            message = f"malformed family spec .*: unknown key '{key}'$"
            with pytest.raises(ValueError, match=message):
                FamilySpec.from_dict(doc)
        # null still means absent
        assert FamilySpec.from_dict({"family": "cube", "n": 4, "k": None}).k is None

    def test_numbers_must_be_json_integers(self):
        # no coercion: floats, booleans and strings (even "3") are malformed
        for key, value in (("n", 2.9), ("n", 2.0), ("n", True), ("n", "3"), ("n", None)):
            message = f"malformed family spec .*: {key} must be an integer, got {value!r}"
            with pytest.raises(ValueError, match=message):
                FamilySpec.from_dict({"family": "cube", key: value})
        for key in ("k", "size", "seed"):
            doc = {"family": "random", "n": 4, "k": 1, "size": 3, "seed": 5}
            doc[key] = 1.5
            with pytest.raises(ValueError, match=f"{key} must be an integer, got 1.5"):
                FamilySpec.from_dict(doc)
        doc = {"family": "ksparse", "n": 3, "k": False}
        with pytest.raises(ValueError, match="k must be an integer, got False"):
            FamilySpec.from_dict(doc)
        doc = {"family": "random", "n": 4, "size": 3, "seed": 2**64 - 1}
        assert FamilySpec.from_dict(doc).seed == 2**64 - 1

    def test_unhashable_family_is_unknown(self):
        with pytest.raises(ValueError, match=r"^unknown family \['cube'\]$"):
            FamilySpec.from_dict({"family": ["cube"], "n": 2})
        with pytest.raises(ValueError, match=r"^unknown family \{\}$"):
            FamilySpec.from_dict({"family": {}, "n": 2})

    def test_ranges_are_checked_at_construction(self):
        # the generators' own checks, so a bad entry fails before any space is built
        cases = (
            ("full_cube", {"n": 99}, r"^n must be in 1\.\.24, got 99$"),
            ("random", {"n": 0, "size": 1, "seed": 0}, r"^n must be in 1\.\.24, got 0$"),
            ("k_sparse", {"n": 3, "k": 4}, r"^k must be in 0\.\.3, got 4$"),
            ("random", {"n": 2, "size": 5, "seed": 0}, r"^size must be in 1\.\.2\^2, got 5$"),
            ("exhaustive", {"n": 5}, "^exhaustive enumeration caps at n = 4, got 5$"),
            ("exhaustive", {"n": 0}, "^n must be at least 1, got 0$"),
            # and each kind takes only its own parameters
            ("full_cube", {"n": 3, "k": 2, "seed": 5}, "^full_cube does not take k$"),
            ("k_sparse", {"n": 3, "k": 1, "size": 4}, "^k_sparse does not take size$"),
            ("random", {"n": 3, "k": 1, "size": 2, "seed": 0}, "^random does not take k$"),
            ("exhaustive", {"n": 2, "seed": 0}, "^exhaustive does not take seed$"),
        )
        for kind, params, message in cases:
            with pytest.raises(ValueError, match=message):
                FamilySpec(kind, **params)

    def test_spaces_for(self):
        assert list(spaces_for(FamilySpec("k_sparse", 3, k=1))) == [k_sparse(3, 1)]
        assert list(spaces_for(FamilySpec("full_cube", 2))) == [full_cube(2)]
        assert len(list(spaces_for(FamilySpec("exhaustive", 2)))) == 15
        assert list(spaces_for(FamilySpec("random", 4, size=5, seed=8))) == [
            random_space(4, 5, 8)
        ]


def test_boundary_probe_n_equals_2k(capsys):
    """At n = 2k the 2k-dimension claim carries no proviso; record, don't assert."""
    observed = {}
    for k in (1, 2, 3):
        n = 2 * k
        d_sim, _ = lifted_vc(k_sparse(n, k))
        observed[k] = d_sim
        print(f"boundary probe: k={k} n={n} lifted vc = {d_sim} (2k would be {2 * k})")
    # sanity only: the general bracket still applies
    for k, d_sim in observed.items():
        assert k - 1 <= d_sim <= (91 * k) // 20
