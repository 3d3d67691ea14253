"""Core space representation: a sorted set of ints, restriction, shattering."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from simvc import (
    HypothesisSpace,
    full_cube,
    is_shattered,
    k_sparse,
    space_from_dict,
    space_to_dict,
)
from simvc.space import restrict

from conftest import bit_space, spaces, subsets_of


class TestSpaceFromDict:
    def test_dedup_and_sort(self):
        space = bit_space(2, ["01", "01", "10"])
        assert space.bit_strings() == ["01", "10"]

    def test_input_order_irrelevant(self):
        a = bit_space(3, ["110", "001", "010"])
        b = bit_space(3, ["010", "110", "001"])
        assert a == b

    def test_domain_too_large(self):
        doc = {"domain_size": 24, "hypotheses": ["0" * 24]}
        assert space_from_dict(doc, 24).domain_size == 24


class TestHypothesisSpace:
    def test_stores_sorted_distinct_ints(self):
        space = HypothesisSpace(2, (0b10, 0b01, 0b10, 0b00))
        assert space == bit_space(2, ["01", "10", "00"])
        assert space.hypotheses == (0b00, 0b01, 0b10)
        # bit strings keep their lexicographic order at output
        assert HypothesisSpace(2, (0b01, 0b10)).bit_strings() == ["01", "10"]
        with pytest.raises(AttributeError):
            space.hypotheses = (0b11,)
        assert space.hypotheses == (0b00, 0b01, 0b10)


class TestRestrict:
    def test_single_column(self):
        space = restrict(full_cube(2), (0,))
        assert space.bit_strings() == ["0", "1"]

    def test_two_columns(self):
        space = restrict(bit_space(3, ["000", "111"]), (0, 2))
        assert space.bit_strings() == ["00", "11"]

    def test_empty_subset_is_single_empty_map(self):
        space = restrict(bit_space(3, ["000", "111"]), ())
        assert space.domain_size == 0
        assert space.bit_strings() == [""]

    def test_column_order_follows_subset(self):
        space = restrict(bit_space(3, ["010"]), (1, 2))
        assert space.bit_strings() == ["10"]


class TestPatternCount:
    def test_examples(self):
        assert len(restrict(bit_space(3, ["000", "111"]), (0, 1))) == 2
        assert len(restrict(full_cube(2), (0, 1))) == 4
        # projections of {000,100,010,001} onto (0,1) by hand: 00, 10, 01
        assert len(restrict(k_sparse(3, 1), (0, 1))) == 3

    @given(spaces(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_size_and_cube(self, space, data):
        subset = data.draw(subsets_of(space.domain_size))
        count = len(restrict(space, subset))
        assert 1 <= count <= min(len(space), 1 << len(subset))

    @given(spaces(max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_hypotheses(self, space, data):
        keep = data.draw(
            st.sets(
                st.integers(0, len(space) - 1), min_size=1, max_size=len(space)
            )
        )
        sub = HypothesisSpace(
            space.domain_size, [space.hypotheses[i] for i in sorted(keep)]
        )
        subset = data.draw(subsets_of(space.domain_size))
        assert len(restrict(sub, subset)) <= len(restrict(space, subset))

    @given(spaces(max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_restriction_composes(self, space, data):
        outer = data.draw(subsets_of(space.domain_size))
        inner = data.draw(subsets_of(len(outer)))
        via_two = restrict(restrict(space, outer), inner)
        composed = tuple(outer[t] for t in inner)
        assert via_two == restrict(space, composed)


class TestIsShattered:
    def test_full_cube_shatters(self):
        assert is_shattered(full_cube(2), (0, 1)) is True
        assert restrict(full_cube(2), (0, 1)).bit_strings() == ["00", "01", "10", "11"]

    def test_missing_pattern_is_lex_smallest(self):
        # realized patterns of k_sparse(3,1) on the full domain are the four
        # hypotheses themselves; of the missing ones 011 sorts first
        space = k_sparse(3, 1)
        assert is_shattered(space, (0, 1, 2)) is False
        realized = set(restrict(space, (0, 1, 2)).bit_strings())
        assert min({format(i, "03b") for i in range(8)} - realized) == "011"

    def test_empty_subset_always_shattered(self):
        space = bit_space(2, ["00"])
        assert is_shattered(space, ()) is True
        assert restrict(space, ()).bit_strings() == [""]

    @given(spaces(max_n=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hereditary(self, space, data):
        subset = data.draw(subsets_of(space.domain_size))
        if is_shattered(space, subset):
            drop = data.draw(st.integers(0, max(len(subset) - 1, 0)))
            smaller = subset[:drop] + subset[drop + 1 :]
            assert is_shattered(space, smaller)

    def test_hereditary_exhaustive_small(self):
        from itertools import combinations

        from simvc import enumerate_spaces

        for n in (2, 3):
            for space in enumerate_spaces(n):
                shattered = {
                    s
                    for m in range(n + 1)
                    for s in combinations(range(n), m)
                    if is_shattered(space, s)
                }
                for s in shattered:
                    for t in range(len(s)):
                        assert s[:t] + s[t + 1 :] in shattered


class TestSerialization:
    def test_round_trip_is_canonical(self):
        space = bit_space(3, ["100", "001", "001"])
        doc = space_to_dict(space)
        assert doc == {"domain_size": 3, "hypotheses": ["001", "100"]}
        assert space_from_dict(doc) == space

    def test_non_canonical_file_loads_canonically(self):
        doc = {"domain_size": 2, "hypotheses": ["10", "01", "10"]}
        assert space_from_dict(doc).bit_strings() == ["01", "10"]

    def test_pair_domain_header_ignored_on_load(self):
        doc = {"domain_size": 3, "pair_domain_of": 3, "hypotheses": ["001"]}
        assert space_from_dict(doc).domain_size == 3


@given(spaces())
@settings(max_examples=50, deadline=None)
def test_canonical_form_is_stable(space):
    rebuilt = bit_space(space.domain_size, reversed(space.bit_strings()))
    assert rebuilt == space and hash(rebuilt) == hash(space)
    # the report pool pickles spaces
    assert pickle.loads(pickle.dumps(space)) == space
    strings = space.bit_strings()
    assert strings == sorted(strings) and len(set(strings)) == len(strings)
