"""Similarity lift, pair graphs, chain witnesses, forests."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from simvc import (
    HypothesisSpace,
    full_cube,
    is_shattered,
    k_sparse,
    lift_hypothesis,
    lift_space,
    lifted_vc,
    pair_domain,
    random_space,
    vc_exact,
)
from simvc.similarity import _star_blocks
from simvc.space import restrict

from conftest import bit_space, chain_witness, forest_components, spaces


def bit_string(bits: int, n: int) -> str:
    """Character j is bit j, as in the space file format."""
    return "".join(str((bits >> j) & 1) for j in range(n))


class TestPairOrder:
    def test_lexicographic_pairs(self):
        assert pair_domain(3) == ((0, 1), (0, 2), (1, 2))
        assert pair_domain(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TestLift:
    def test_constant_hypothesis_is_all_similar(self):
        assert lift_hypothesis(0b000, 3) == 0b111

    def test_direct_evaluation(self):
        # pairs (0,1),(0,2),(1,2): h=010 gives 0, 1, 0
        assert bit_string(lift_hypothesis(0b010, 3), 3) == "010"

    def test_complement_invariance_example(self):
        assert lift_hypothesis(0b101, 3) == lift_hypothesis(0b010, 3)

    def test_complement_collapse_exhaustively(self):
        for n in range(1, 9):
            top = (1 << n) - 1
            for bits in range(1 << n):
                assert lift_hypothesis(bits, n) == lift_hypothesis(bits ^ top, n)

    def test_lift_space_full_cube_two(self):
        assert lift_space(full_cube(2)).bit_strings() == ["0", "1"]

    def test_lift_space_k_sparse(self):
        lifted = lift_space(k_sparse(3, 1))
        assert set(lifted.bit_strings()) == {"111", "001", "010", "100"}

    def test_lift_single_hypothesis_space(self):
        lifted = lift_space(bit_space(3, ["010"]))
        assert len(lifted) == 1
        assert vc_exact(lifted)[0] == 0

    @given(spaces(max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_lift_never_grows(self, space):
        assert len(lift_space(space)) <= len(space)


class TestChains:
    def test_chain_witness_examples(self):
        assert bit_string(chain_witness([0, 1, 2], (1, 1), 0), 3) == "000"
        assert bit_string(chain_witness([0, 1, 2], (0, 1), 0), 3) == "011"
        assert bit_string(chain_witness([0, 1, 2], (0, 1), 1), 3) == "100"

    def test_both_start_bits_are_complements_on_the_chain(self):
        elems = [1, 4, 2, 0]
        labels = (0, 1, 0)
        h0 = chain_witness(elems, labels, 0)
        h1 = chain_witness(elems, labels, 1)
        for e in elems:
            assert (h0 >> e) & 1 != (h1 >> e) & 1

    def test_chain_witness_is_zero_off_chain(self):
        h = chain_witness([2, 4], (1,), 1)
        assert [(h >> j) & 1 for j in range(6)] == [0, 0, 1, 0, 1, 0]
        assert bit_string(chain_witness([2, 4], (0,), 1), 6) == "001000"


class TestForest:
    def test_triangle_has_certifying_cycle(self):
        assert forest_components([(0, 1), (1, 2), (0, 2)]) is None

    def test_path_and_forest(self):
        assert forest_components([(0, 1), (1, 2)]) is not None
        assert forest_components([(0, 1), (2, 3), (3, 4)]) is not None

    def test_cycle_edges_are_input_edges(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]
        assert forest_components(edges) is None

    def test_components_examples(self):
        assert forest_components([(0, 1), (1, 2)]) == ((0, 1, 2),)
        trees = forest_components([(0, 1), (2, 3)])
        assert trees == ((0, 1), (2, 3))
        assert len(trees) == 2
        assert forest_components([]) == ()

    def test_reversed_pair_is_the_same_edge(self):
        assert forest_components([(0, 1), (1, 0)]) == ((0, 1),)


class TestForestNecessity:
    def test_shattered_pair_sets_are_forests(self):
        # every rank set the lifted space shatters is acyclic
        for n in (3, 4):
            domain = pair_domain(n)
            for seed in (5, 6, 7):
                lifted = lift_space(random_space(n, min(1 << n, 10), seed))
                for m in range(1, len(domain) + 1):
                    for ranks in combinations(range(len(domain)), m):
                        if is_shattered(lifted, ranks):
                            pairs = [domain[r] for r in ranks]
                            assert forest_components(pairs) is not None


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
        endpoints = sorted({v for r in ranks for v in domain[r]})
        assert len(restrict(lifted, ranks)) <= len(restrict(space, endpoints))


class TestLiftedVcOracle:
    def test_cubes_reach_n_minus_one(self):
        for n in range(2, 7):
            d_sim, witness = lifted_vc(full_cube(n))
            assert d_sim == n - 1
            assert witness == tuple((0, j) for j in range(1, n))


def test_star_forests_are_one_per_vertex_partition():
    # lifted_vc searches these; Bell(n) set partitions of n vertices
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, count in bell.items():
        pairs = pair_domain(n)
        blocks = _star_blocks(pairs, n)
        # a set of ranks with the candidates that may extend it, as lifted_vc searches
        forests, todo = [], [((), (1 << len(pairs)) - 1)]
        while todo:
            ranks, allowed = todo.pop()
            forests.append([pairs[r] for r in ranks])
            for e in range(len(pairs)):
                if allowed >> e & 1:
                    above = allowed & -(2 << e)
                    todo.append((ranks + (e,), above & ~blocks[e]))
        partitions = {forest_components(f) for f in forests}
        assert len(forests) == len(partitions) == count
        for f in forests:
            starts = {c[0] for c in forest_components(f)}
            assert all(a in starts for a, _ in f)


def _permuted(space, perm):
    """Element j of ``space`` becomes element perm[j]."""
    n = space.domain_size
    return HypothesisSpace(
        n, [sum(((h >> j) & 1) << perm[j] for j in range(n)) for h in space.hypotheses]
    )


class TestLiftedVcInvariance:
    """d_sim (and d) under symmetries of the domain and of the labels."""

    @given(spaces(max_n=6, max_size=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_domain_permutation(self, space, data):
        perm = data.draw(st.permutations(range(space.domain_size)))
        moved = _permuted(space, perm)
        assert lifted_vc(moved)[0] == lifted_vc(space)[0]
        assert vc_exact(moved)[0] == vc_exact(space)[0]

    @given(spaces(max_n=6, max_size=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_xor_mask(self, space, data):
        # the lift turns the mask into a flip of the pair columns it separates,
        # which keeps every shattered pair set, so the witness stays too
        n = space.domain_size
        mask = data.draw(st.integers(0, (1 << n) - 1))
        flipped = HypothesisSpace(n, [h ^ mask for h in space.hypotheses])
        assert lifted_vc(flipped) == lifted_vc(space)
        assert vc_exact(flipped)[0] == vc_exact(space)[0]

    @given(spaces(max_n=6, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_adding_complements(self, space):
        # h and its complement lift to the same labelling
        n = space.domain_size
        top = (1 << n) - 1
        closed = HypothesisSpace(n, list(space.hypotheses) + [h ^ top for h in space.hypotheses])
        assert lifted_vc(closed) == lifted_vc(space)


def test_restrict_of_lift_equals_chain_labelling():
    # end-to-end: chain witness through restrict(lift(...), chain pairs)
    elems = [0, 2, 3]
    labels = (1, 0)
    h = chain_witness(elems, labels, 0)
    domain = pair_domain(4)
    ranks = tuple(domain.index(pair) for pair in zip(elems, elems[1:]))
    projected = restrict(lift_space(HypothesisSpace(4, [h])), ranks)
    lifted = lift_hypothesis(h, 4)
    expected = "".join(str((lifted >> r) & 1) for r in ranks)
    assert projected.bit_strings() == [expected]
