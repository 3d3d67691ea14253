"""Similarity lift, pair graphs, chain witnesses, forests."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from simvc import (
    Hypothesis,
    PairDomain,
    SimvcError,
    balanced_labelling,
    canonical_pairs,
    chain_witness,
    components,
    enumerate_spaces,
    full_cube,
    is_forest,
    is_shattered,
    k_sparse,
    lift_hypothesis,
    lift_space,
    lifted_vc,
    make_space,
    pair_domain,
    pattern_count,
    random_space,
    restrict,
    splitmix64_stream,
    vc_exact,
)

from simvc.similarity import _star_extensions

from conftest import spaces, space_from_ints


def reference_lift(h: Hypothesis) -> str:
    """Independent evaluation of the lift definition, pair by pair."""
    out = []
    for i in range(h.length):
        for j in range(i + 1, h.length):
            out.append("1" if h.value(i) == h.value(j) else "0")
    return "".join(out)


class TestPairDomain:
    def test_lexicographic_pairs(self):
        assert pair_domain(3).pairs == ((0, 1), (0, 2), (1, 2))
        assert pair_domain(4).pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_rank_unrank_inverse(self):
        domain = pair_domain(6)
        for r in range(len(domain)):
            i, j = domain.unrank(r)
            assert domain.rank(i, j) == r
            assert domain.rank(j, i) == r

    def test_rank_rejects_diagonal_and_range(self):
        domain = PairDomain(3)
        with pytest.raises(ValueError):
            domain.rank(1, 1)
        with pytest.raises(SimvcError, match=r"pair \(0, 3\) out of range"):
            domain.rank(0, 3)
        with pytest.raises(SimvcError, match="pair rank 3 out of range"):
            domain.unrank(3)


class TestLift:
    def test_constant_hypothesis_is_all_similar(self):
        assert lift_hypothesis(Hypothesis.from_string("000")).to_string() == "111"

    def test_direct_evaluation(self):
        # pairs (0,1),(0,2),(1,2): h=010 gives 0, 1, 0
        assert lift_hypothesis(Hypothesis.from_string("010")).to_string() == "010"

    def test_complement_invariance_example(self):
        a = lift_hypothesis(Hypothesis.from_string("101"))
        b = lift_hypothesis(Hypothesis.from_string("010"))
        assert a == b

    def test_matches_reference_exhaustively(self):
        for n in range(1, 7):
            for bits in range(1 << n):
                h = Hypothesis(bits, n)
                assert lift_hypothesis(h).to_string() == reference_lift(h)

    def test_complement_collapse_exhaustively(self):
        for n in range(1, 7):
            for bits in range(1 << n):
                h = Hypothesis(bits, n)
                assert lift_hypothesis(h) == lift_hypothesis(h.complement())

    def test_lift_space_full_cube_two(self):
        assert lift_space(full_cube(2)).bit_strings() == ["0", "1"]

    def test_lift_space_k_sparse(self):
        lifted = lift_space(k_sparse(3, 1))
        assert set(lifted.bit_strings()) == {"111", "001", "010", "100"}

    def test_lift_single_hypothesis_space(self):
        lifted = lift_space(make_space(3, ["010"]))
        assert len(lifted) == 1
        assert vc_exact(lifted).dimension == 0

    def test_lift_requires_pairs(self):
        with pytest.raises(SimvcError, match="cannot lift a space over 1 element"):
            lift_space(make_space(1, ["0", "1"]))

    @given(spaces(max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_lift_never_grows(self, space):
        assert len(lift_space(space)) <= len(space)


class TestChains:
    def test_chain_witness_examples(self):
        assert chain_witness([0, 1, 2], (1, 1), 0, 3).to_string() == "000"
        assert chain_witness([0, 1, 2], (0, 1), 0, 3).to_string() == "011"
        assert chain_witness([0, 1, 2], (0, 1), 1, 3).to_string() == "100"

    def test_both_start_bits_are_complements_on_the_chain(self):
        elems = [1, 4, 2, 0]
        labels = (0, 1, 0)
        h0 = chain_witness(elems, labels, 0, 5)
        h1 = chain_witness(elems, labels, 1, 5)
        for e in elems:
            assert h0.value(e) + h1.value(e) == 1

    def test_chain_witness_is_zero_off_chain(self):
        h = chain_witness([2, 4], (1,), 1, 6)
        assert [h.value(j) for j in range(6)] == [0, 0, 1, 0, 1, 0]
        assert chain_witness([2, 4], (0,), 1, 6).to_string() == "001000"

    def test_chain_witness_errors(self):
        with pytest.raises(SimvcError, match="2 labels for a chain of 2 elements"):
            chain_witness([0, 1], (0, 1), 0, 3)
        with pytest.raises(SimvcError, match="chain elements must be distinct"):
            chain_witness([0, 0], (1,), 0, 3)
        with pytest.raises(SimvcError, match="chain element 5 out of range"):
            chain_witness([0, 5], (1,), 0, 3)

    def test_soundness_on_sample_chains(self):
        # restrict(lift(witness), chain pairs) reproduces the labelling
        for elems in ([0, 1, 2, 3], [5, 2, 7, 0, 4]):
            length = len(elems)
            domain = pair_domain(8)
            for g in range(1 << (length - 1)):
                labels = tuple((g >> t) & 1 for t in range(length - 1))
                for start in (0, 1):
                    h = chain_witness(elems, labels, start, 8)
                    lifted = lift_hypothesis(h)
                    for (a, b), want in zip(zip(elems, elems[1:]), labels):
                        assert lifted.value(domain.rank(a, b)) == want


class TestForest:
    def test_triangle_has_certifying_cycle(self):
        check = is_forest([(0, 1), (1, 2), (0, 2)])
        assert not check
        assert check.cycle == ((0, 1), (0, 2), (1, 2))
        assert len(check.cycle) == 3

    def test_path_and_forest(self):
        assert is_forest([(0, 1), (1, 2)])
        assert is_forest([(0, 1), (2, 3), (3, 4)])

    def test_cycle_edges_are_input_edges(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]
        check = is_forest(edges)
        assert not check
        assert set(check.cycle) <= set(canonical_pairs(edges))

    def test_components_examples(self):
        assert components([(0, 1), (1, 2)]).components == ((0, 1, 2),)
        parts = components([(0, 1), (2, 3)])
        assert parts.components == ((0, 1), (2, 3))
        assert parts.tree_count == 2
        assert components([]).components == ()


class TestBalancedLabelling:
    def test_path_gets_single_one(self):
        assert balanced_labelling([(0, 1), (1, 2)], 3).to_string() == "100"

    def test_two_components(self):
        assert balanced_labelling([(0, 1), (2, 3)], 4).to_string() == "1010"

    def test_empty_graph(self):
        assert balanced_labelling([], 2).to_string() == "00"

    def test_rejects_cycles(self):
        with pytest.raises(SimvcError, match="pair set contains a cycle"):
            balanced_labelling([(0, 1), (1, 2), (0, 2)], 3)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_weight_identity(self, data):
        n = data.draw(st.integers(3, 10))
        raw = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12
            )
        )
        edges = []
        for a, b in raw:
            if a != b and is_forest(edges + [(a, b)]):
                edges.append((a, b))
        labelling = balanced_labelling(edges, n)
        parts = components(edges)
        weight = sum(labelling.value(j) for j in range(n))
        assert weight == sum(len(c) // 2 for c in parts.components)
        assert 2 * weight >= parts.vertex_count - parts.tree_count


class TestForestNecessity:
    def test_shattered_pair_sets_are_forests(self):
        # every rank set the lifted space shatters is acyclic
        for n in (3, 4):
            domain = pair_domain(n)
            for seed in (5, 6, 7):
                lifted = lift_space(random_space(n, min(1 << n, 10), seed))
                for m in range(1, len(domain) + 1):
                    for ranks in combinations(range(len(domain)), m):
                        if is_shattered(lifted, ranks).shattered:
                            assert is_forest([domain.pairs[r] for r in ranks])

    def test_nonforest_sets_never_shattered_in_full_cube_lift(self):
        # the full cube dominates every space, so this covers all of them
        for n in (4, 5):
            domain = pair_domain(n)
            lifted = lift_space(full_cube(n))
            for m in (3, 4):
                for ranks in combinations(range(len(domain)), m):
                    if not is_forest([domain.pairs[r] for r in ranks]):
                        assert not is_shattered(lifted, ranks).shattered


class TestCardinalityStep:
    @given(spaces(max_n=6, max_size=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lift_patterns_bounded_by_endpoint_patterns(self, space, data):
        domain = pair_domain(space.domain_size)
        ranks = data.draw(
            st.sets(st.integers(0, len(domain) - 1), min_size=1, max_size=6)
        )
        ranks = tuple(sorted(ranks))
        lifted = lift_space(space)
        endpoints = sorted({v for r in ranks for v in domain.pairs[r]})
        assert pattern_count(lifted, ranks) <= pattern_count(space, endpoints)


def lifted_oracle(space):
    """Lift + unfiltered vc_exact, with the witness ranks turned back into pairs."""
    result = vc_exact(lift_space(space))
    domain = pair_domain(space.domain_size)
    return result.dimension, tuple(domain.unrank(r) for r in result.witness.subset)


class TestLiftedVcOracle:
    def test_exhaustive_small_domains(self):
        for space in enumerate_spaces(1):
            assert lifted_vc(space) == (0, ())
        for n in (2, 3):
            for space in enumerate_spaces(n):
                assert lifted_vc(space) == lifted_oracle(space)

    def test_seeded_random_spaces(self):
        rng = splitmix64_stream(0x5117)
        for _ in range(200):
            n = 2 + next(rng) % 6  # 2..7
            size = 1 + next(rng) % min(1 << n, 32)
            space = random_space(n, size, next(rng))
            assert lifted_vc(space) == lifted_oracle(space)

    def test_cubes_reach_n_minus_one(self):
        for n in range(2, 7):
            d_sim, witness = lifted_vc(full_cube(n))
            assert d_sim == n - 1
            assert witness == tuple((0, j) for j in range(1, n))


def test_star_forests_are_one_per_vertex_partition():
    # lifted_vc searches these; Bell(n) set partitions of n vertices
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, count in bell.items():
        pairs = pair_domain(n).pairs
        extensions = _star_extensions(pairs)
        forests, todo = [], [()]
        while todo:
            ranks = todo.pop()
            forests.append([pairs[r] for r in ranks])
            todo.extend(ranks + (e,) for e in extensions(ranks))
        blocks = {components(f).components for f in forests}
        assert len(forests) == len(blocks) == count
        for f in forests:
            starts = {c[0] for c in components(f).components}
            assert all(a in starts for a, _ in f)


def _permuted(space, perm):
    """Element j of ``space`` becomes element perm[j]."""
    n = space.domain_size
    # space_from_ints reads bit n-1-j as the label of element j
    return space_from_ints(
        n,
        (sum(((h.bits >> j) & 1) << (n - 1 - perm[j]) for j in range(n)) for h in space.hypotheses),
    )


class TestLiftedVcInvariance:
    """d_sim (and d) under symmetries of the domain and of the labels."""

    @given(spaces(max_n=6, max_size=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_domain_permutation(self, space, data):
        perm = data.draw(st.permutations(range(space.domain_size)))
        moved = _permuted(space, perm)
        assert lifted_vc(moved)[0] == lifted_vc(space)[0]
        assert vc_exact(moved).dimension == vc_exact(space).dimension

    @given(spaces(max_n=6, max_size=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_xor_mask(self, space, data):
        # the lift turns the mask into a flip of the pair columns it separates,
        # which keeps every shattered pair set, so the witness stays too
        n = space.domain_size
        mask = data.draw(st.integers(0, (1 << n) - 1))
        flipped = make_space(n, [Hypothesis(h.bits ^ mask, n) for h in space.hypotheses])
        assert lifted_vc(flipped) == lifted_vc(space)
        assert vc_exact(flipped).dimension == vc_exact(space).dimension

    @given(spaces(max_n=6, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_adding_complements(self, space):
        # h and its complement lift to the same labelling
        closed = make_space(
            space.domain_size, list(space.hypotheses) + [h.complement() for h in space.hypotheses]
        )
        assert lifted_vc(closed) == lifted_vc(space)


def ordered_lift(space):
    """Lift onto all n*n ordered pairs, diagonal included; pair (w, x) is column w*n + x."""
    n = space.domain_size
    return make_space(
        n * n,
        [
            "".join("1" if h.value(w) == h.value(x) else "0" for w in range(n) for x in range(n))
            for h in space.hypotheses
        ],
    )


class TestOrderedModeEquivalence:
    """Dropping reversed and diagonal pairs from the pair domain never changes d_sim."""

    def test_exhaustive_small(self):
        for n in (2, 3):
            for space in enumerate_spaces(n):
                canonical, _ = lifted_vc(space)
                ordered = vc_exact(ordered_lift(space)).dimension
                assert canonical == ordered

    def test_sampled_n4(self):
        for seed in range(8):
            space = random_space(4, 1 + seed % 12, seed)
            canonical, _ = lifted_vc(space)
            ordered = vc_exact(ordered_lift(space)).dimension
            assert canonical == ordered

    def test_ordered_lift_handles_single_element_domain(self):
        space = make_space(1, ["0", "1"])
        assert vc_exact(ordered_lift(space)).dimension == 0


def test_restrict_of_lift_equals_chain_labelling():
    # end-to-end: chain witness through restrict(lift(...), chain pairs)
    elems = [0, 2, 3]
    labels = (1, 0)
    h = chain_witness(elems, labels, 0, 4)
    domain = pair_domain(4)
    ranks = tuple(sorted(domain.rank(a, b) for a, b in zip(elems, elems[1:])))
    projected = restrict(lift_space(make_space(4, [h])), ranks)
    lifted = lift_hypothesis(h)
    expected = "".join(str(lifted.value(r)) for r in ranks)
    assert projected.bit_strings() == [expected]
