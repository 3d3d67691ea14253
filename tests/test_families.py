"""Family generators and seeded streams."""

import math
import pickle

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
from simvc.families import (
    random_space_seeds, random_space_stream, space_at, space_count, spaces_for, splitmix64_stream,
)


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


class TestFullCube:
    def test_tiny(self):
        assert full_cube(1).bit_strings() == ["0", "1"]

    def test_cube_shatters_everything(self):
        space = full_cube(3)
        assert len(space) == 8
        assert vc_exact(space)[0] == 3


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

    def test_stream_is_reproducible(self):
        a = list(random_space_stream(5, 6, 10, 99))
        b = list(random_space_stream(5, 6, 10, 99))
        assert a == b
        assert len({tuple(s.bit_strings()) for s in a}) > 1

    def test_stream_is_its_seeds_spaces(self):
        seeds = random_space_seeds(5, 6, 10, 99)
        assert [random_space(5, 6, s) for s in seeds] == list(random_space_stream(5, 6, 10, 99))


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
        assert next(enumerate_spaces(4)).bit_strings() == ["0000"]


class TestExhaustiveOrbits:
    def test_counts_and_multiplicities(self):
        for n, orbits in ((1, 2), (2, 5), (3, 21), (4, 401)):
            pairs = list(exhaustive_orbits(n))
            assert len(pairs) == orbits
            assert sum(size for _, size in pairs) == (1 << (1 << n)) - 1


class TestFamilySpec:
    def test_round_trip(self):
        spec = FamilySpec("random", 6, size=10, seed=3)
        assert FamilySpec.from_dict(spec.to_dict()) == spec
        # unpickling goes through the checking constructor, as for spaces
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(FamilySpec("random", 6, size=10, seed=3)) == hash(spec)
        assert spec != FamilySpec("random", 6, size=10, seed=4)
        with pytest.raises(AttributeError):
            spec.seed = 4
        assert spec.seed == 3

    def test_aliases(self):
        assert FamilySpec.from_dict({"family": "ksparse", "n": 5, "k": 2}).kind == "k_sparse"
        assert FamilySpec.from_dict({"family": "cube", "n": 3}).kind == "full_cube"

    def test_missing_params(self):
        assert FamilySpec.from_dict({"family": "cube", "n": 4, "k": None}).k is None

    def test_numbers_must_be_json_integers(self):
        doc = {"family": "random", "n": 4, "size": 3, "seed": 2**64 - 1}
        assert FamilySpec.from_dict(doc).seed == 2**64 - 1

    def test_spaces_for(self):
        assert list(spaces_for(FamilySpec("k_sparse", 3, k=1))) == [k_sparse(3, 1)]
        assert list(spaces_for(FamilySpec("full_cube", 2))) == [full_cube(2)]
        assert len(list(spaces_for(FamilySpec("exhaustive", 2)))) == 15
        assert list(spaces_for(FamilySpec("random", 4, size=5, seed=8))) == [
            random_space(4, 5, 8)
        ]

    def test_exhaustive_space_i_is_enumeration_space_i(self):
        for n in (1, 2, 3):
            spec = FamilySpec("exhaustive", n)
            spaces = [space_at(spec, i) for i in range(space_count(spec))]
            assert spaces == list(spaces_for(spec)) == list(enumerate_spaces(n))
        assert space_count(FamilySpec("exhaustive", 4)) == 65535
        assert space_count(FamilySpec("full_cube", 4)) == 1


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
