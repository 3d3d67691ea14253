"""Core space representation: canonical form, restriction, shattering."""

import pytest
from hypothesis import given, settings, strategies as st

from simvc import (
    HypothesisSpace,
    MissingPattern,
    ShatterWitness,
    SimvcError,
    full_cube,
    is_shattered,
    k_sparse,
    make_space,
    pattern_count,
    restrict,
    space_from_dict,
    space_to_dict,
)

from conftest import spaces, subsets_of


class TestMakeSpace:
    def test_dedup_and_sort(self):
        space = make_space(2, ["01", "01", "10"])
        assert space.bit_strings() == ["01", "10"]

    def test_input_order_irrelevant(self):
        a = make_space(3, ["110", "001", "010"])
        b = make_space(3, ["010", "110", "001"])
        assert a == b

    def test_empty_space(self):
        with pytest.raises(SimvcError, match="no hypotheses supplied"):
            make_space(3, [])

    def test_length_mismatch(self):
        with pytest.raises(SimvcError, match="hypothesis '011' has length 3, expected 2"):
            make_space(2, ["011"])

    def test_domain_too_large(self):
        with pytest.raises(SimvcError, match="domain_size 25 exceeds the supported maximum 24"):
            make_space(25, ["0" * 25])

    def test_invalid_character(self):
        with pytest.raises(ValueError):
            make_space(2, ["0x"])

    def test_accepts_ints(self):
        # bit j of an int is the label of element j, as character j of a string
        space = make_space(3, [0b001, "100", 0b110])
        assert space.bit_strings() == ["011", "100"]
        assert space.hypotheses == (0b110, 0b001)

    def test_int_out_of_range(self):
        with pytest.raises(SimvcError, match="hypothesis 4 does not fit a space over 2 elements"):
            make_space(2, [4])
        with pytest.raises(SimvcError, match="hypothesis -1 does not fit"):
            make_space(2, [-1])


class TestHypothesisSpace:
    def test_rows_must_be_canonical(self):
        # bit strings "00" < "01" < "10"
        assert HypothesisSpace(2, (0b00, 0b10, 0b01)).bit_strings() == ["00", "01", "10"]
        for rows in ((0b01, 0b10), (0b10, 0b10), (0b11, 0b00)):
            with pytest.raises(ValueError, match="deduplicated and lexicographically sorted"):
                HypothesisSpace(2, rows)
        with pytest.raises(SimvcError, match="hypothesis 4 does not fit a space over 2 elements"):
            HypothesisSpace(2, (0b00, 0b100))


class TestRestrict:
    def test_single_column(self):
        space = restrict(full_cube(2), (0,))
        assert space.bit_strings() == ["0", "1"]

    def test_two_columns(self):
        space = restrict(make_space(3, ["000", "111"]), (0, 2))
        assert space.bit_strings() == ["00", "11"]

    def test_empty_subset_is_single_empty_map(self):
        space = restrict(make_space(3, ["000", "111"]), ())
        assert space.domain_size == 0
        assert space.bit_strings() == [""]

    def test_out_of_range(self):
        with pytest.raises(SimvcError, match="domain index 2 out of range for domain of size 2"):
            restrict(full_cube(2), (2,))

    def test_column_order_follows_subset(self):
        space = restrict(make_space(3, ["010"]), (1, 2))
        assert space.bit_strings() == ["10"]


class TestPatternCount:
    def test_examples(self):
        assert pattern_count(make_space(3, ["000", "111"]), (0, 1)) == 2
        assert pattern_count(full_cube(2), (0, 1)) == 4
        # projections of {000,100,010,001} onto (0,1) by hand: 00, 10, 01
        assert pattern_count(k_sparse(3, 1), (0, 1)) == 3

    @given(spaces(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_size_and_cube(self, space, data):
        subset = data.draw(subsets_of(space.domain_size))
        count = pattern_count(space, subset)
        assert 1 <= count <= min(len(space), 1 << len(subset))

    @given(spaces(max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_hypotheses(self, space, data):
        keep = data.draw(
            st.sets(
                st.integers(0, len(space) - 1), min_size=1, max_size=len(space)
            )
        )
        sub = make_space(
            space.domain_size, [space.hypotheses[i] for i in sorted(keep)]
        )
        subset = data.draw(subsets_of(space.domain_size))
        assert pattern_count(sub, subset) <= pattern_count(space, subset)

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
        result = is_shattered(full_cube(2), (0, 1))
        assert isinstance(result, ShatterWitness)
        assert result.shattered
        assert result.patterns == ("00", "01", "10", "11")

    def test_missing_pattern_is_lex_smallest(self):
        # realized patterns of k_sparse(3,1) on the full domain are the four
        # hypotheses themselves; of the missing ones 011 sorts first
        result = is_shattered(k_sparse(3, 1), (0, 1, 2))
        assert isinstance(result, MissingPattern)
        assert not result.shattered
        assert result.missing == "011"

    def test_empty_subset_always_shattered(self):
        result = is_shattered(make_space(2, ["00"]), ())
        assert result.shattered
        assert result.patterns == ("",)

    def test_subset_too_large(self):
        doc = {"domain_size": 30, "hypotheses": ["0" * 30, "1" * 30]}
        space = space_from_dict(doc)
        with pytest.raises(SimvcError, match="subset of size 25 exceeds the 24-bit pattern budget"):
            is_shattered(space, tuple(range(25)))

    @given(spaces(max_n=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hereditary(self, space, data):
        subset = data.draw(subsets_of(space.domain_size))
        if is_shattered(space, subset).shattered:
            drop = data.draw(st.integers(0, max(len(subset) - 1, 0)))
            smaller = subset[:drop] + subset[drop + 1 :]
            assert is_shattered(space, smaller).shattered

    def test_hereditary_exhaustive_small(self):
        from itertools import combinations

        from simvc import enumerate_spaces

        for n in (2, 3):
            for space in enumerate_spaces(n):
                shattered = {
                    s
                    for m in range(n + 1)
                    for s in combinations(range(n), m)
                    if is_shattered(space, s).shattered
                }
                for s in shattered:
                    for t in range(len(s)):
                        assert s[:t] + s[t + 1 :] in shattered


class TestSerialization:
    def test_round_trip_is_canonical(self):
        space = make_space(3, ["100", "001", "001"])
        doc = space_to_dict(space)
        assert doc == {"domain_size": 3, "hypotheses": ["001", "100"]}
        assert space_from_dict(doc) == space

    def test_non_canonical_file_loads_canonically(self):
        doc = {"domain_size": 2, "hypotheses": ["10", "01", "10"]}
        assert space_from_dict(doc).bit_strings() == ["01", "10"]

    def test_pair_domain_header_ignored_on_load(self):
        doc = {"domain_size": 3, "pair_domain_of": 3, "hypotheses": ["001"]}
        assert space_from_dict(doc).domain_size == 3

    def test_malformed_documents(self):
        for doc in ([], {"domain_size": 2}, {"domain_size": "2", "hypotheses": ["01"]}):
            with pytest.raises(ValueError):
                space_from_dict(doc)


@given(spaces())
@settings(max_examples=50, deadline=None)
def test_canonical_form_is_stable(space):
    rebuilt = make_space(space.domain_size, reversed(space.bit_strings()))
    assert rebuilt == space
    strings = space.bit_strings()
    assert strings == sorted(strings) and len(set(strings)) == len(strings)
