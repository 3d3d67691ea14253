"""The similarity lift and its pair-domain machinery.

A hypothesis h induces a labelling of pairs: a pair (w, x) is labelled 1
exactly when h(w) = h(x).  The canonical pair domain is the set of unordered
pairs {i < j} without the diagonal -- the two orders of a pair always carry
identical labels and a diagonal pair is always labelled 1, so neither can
ever contribute to a shattered set.  ``pair_domain(n)`` is that domain as a
tuple in lexicographic order, and the one place the order is decided: a
pair's index in it is its rank, the bit it occupies in ``lift_hypothesis``.

Pair sets double as graphs (edges over the endpoint vertices).  A pair set
shattered by any lifted space must be acyclic: around a cycle, a labelling
with exactly one 0-edge would connect two vertices by both an all-equal path
and a one-flip path.  The edge labellings of a forest are the vertex
labellings of its endpoints up to flipping each tree, so whether a forest is
shattered depends only on how its vertices split into trees.  ``lifted_vc``
therefore runs the engine's depth-first search over one forest per vertex
partition: the min-centred star forest, which joins every block to its
smallest vertex; a chosen pair blocks the pairs touching its larger end, now
a leaf.  It re-checks its witness with ``is_shattered`` on the lifted
space.  ``forest_components`` splits a pair graph into its trees in
one union-find pass (None when it has a cycle), and ``balanced_labelling``
labels half of each tree 1, the labelling used to bound sparse families.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .engine import _columns, _largest
from .errors import SimvcError
from .space import HypothesisSpace, _canonical_space, is_shattered

#: A canonical pair (i, j) with i < j, and a sorted, deduplicated set of them.
Pair = tuple[int, int]
PairSet = tuple[Pair, ...]


@lru_cache(maxsize=64)
def pair_domain(n: int) -> PairSet:
    """The C(n, 2) pairs (i, j), i < j, of [n] in lexicographic order.

    A pair's index in this tuple is its rank: the bit it occupies in a
    lifted hypothesis and its column in a lifted space.
    """
    if n < 0:
        raise ValueError(f"the base domain cannot have {n} elements")
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=1 << 15)
def lift_hypothesis(bits: int, n: int) -> int:
    """Pair labelling induced by the labelling ``bits`` of [n], as an int.

    The bit at the rank of pair (i, j) is 1 iff elements i and j carry the
    same label.
    """
    if not 0 <= bits < 1 << n:
        raise SimvcError(f"hypothesis {bits} does not fit a domain of {n} elements")
    out = 0
    for r, (i, j) in enumerate(pair_domain(n)):
        if not ((bits >> i) ^ (bits >> j)) & 1:
            out |= 1 << r
    return out


def lift_space(space: HypothesisSpace) -> HypothesisSpace:
    """Canonical space of the distinct lifted hypotheses over the pair domain.

    |lifted| <= |H|, strictly smaller whenever H contains a hypothesis and
    its complement (the lift cannot tell them apart).
    """
    n = space.domain_size
    if n < 2:
        raise SimvcError(
            f"cannot lift a space over {n} element(s): the pair domain is empty "
            "(treat the lifted VC dimension as 0)"
        )
    m = n * (n - 1) // 2
    return _canonical_space(m, (lift_hypothesis(h, n) for h in space.hypotheses))


def chain_witness(
    elements: Sequence[int],
    labels: Sequence[int],
    start_bit: int,
    domain_size: int,
) -> int:
    """Hypothesis (as an int) realizing a prescribed similarity labelling along a chain.

    The value at elements[0] is ``start_bit``; it propagates down the chain,
    kept equal across a 1-labelled pair and flipped across a 0-labelled one,
    and is 0 everywhere outside the chain.  Restricting the lift of the
    result to the chain's pairs reproduces ``labels``.
    """
    elems = list(elements)
    if not elems:
        raise ValueError("chain must contain at least one element")
    if len(set(elems)) != len(elems):
        raise SimvcError(f"chain elements must be distinct: {elems}")
    if len(labels) != len(elems) - 1:
        raise SimvcError(
            f"{len(labels)} labels for a chain of {len(elems)} elements; expected {len(elems) - 1}"
        )
    if start_bit not in (0, 1):
        raise ValueError("start_bit must be 0 or 1")
    for e in elems:
        if not 0 <= e < domain_size:
            raise SimvcError(
                f"chain element {e} out of range for domain of size {domain_size}"
            )
    bits = 0
    val = start_bit
    if val:
        bits |= 1 << elems[0]
    for lab, e in zip(labels, elems[1:]):
        if lab not in (0, 1):
            raise ValueError("labels must be 0 or 1")
        val = val if lab else 1 - val
        if val:
            bits |= 1 << e
    return bits


def _root(parent: dict, x: int) -> int:
    while x in parent:
        x = parent[x]
    return x


def forest_components(
    pairs: Iterable[Sequence[int]],
) -> "Optional[tuple[tuple[int, ...], ...]]":
    """Vertex sets of the pair graph's trees, or None when it has a cycle.

    (a, b) and (b, a) are one edge.  Each tree is sorted and the trees are
    ordered by smallest vertex; only endpoint vertices appear.
    """
    edges = set()
    for a, b in pairs:
        if a == b:
            raise ValueError(f"diagonal pair ({a}, {b}) is not a valid pair")
        if a < 0 or b < 0:
            raise ValueError("pair endpoints must be non-negative")
        edges.add((a, b) if a < b else (b, a))
    parent: dict = {}
    for a, b in edges:
        ra, rb = _root(parent, a), _root(parent, b)
        if ra == rb:
            return None
        parent[ra] = rb
    trees: dict = {}
    for v in {v for e in edges for v in e}:
        trees.setdefault(_root(parent, v), []).append(v)
    out = tuple(sorted(tuple(sorted(t)) for t in trees.values()))
    # counting identity for forests: |V| = |E| + number of trees
    assert sum(map(len, out)) == len(edges) + len(out)
    return out


def balanced_labelling(pairs: Iterable[Sequence[int]], domain_size: int) -> int:
    """Label floor(|T|/2) vertices of each tree T 1, the rest 0.

    The smallest-indexed vertices of each tree receive the 1s; vertices
    outside every tree are 0.  Requires the pair set to be a forest.
    """
    trees = forest_components(pairs)
    if trees is None:
        raise SimvcError("pair set contains a cycle")
    bits = 0
    for tree in trees:
        for v in tree:
            if v >= domain_size:
                raise SimvcError(
                    f"vertex {v} out of range for domain of size {domain_size}"
                )
        for v in tree[: len(tree) // 2]:
            bits |= 1 << v
    return bits


def _star_blocks(n: int) -> "list[int]":
    """Per pair rank, the ranks choosing it rules out of a min-centred star forest."""
    # Every centre so far is at most a < b, as ranks are lexicographic, so
    # choosing (a, b) makes b a leaf, and no later pair may touch b.
    pairs = pair_domain(n)
    touching = [0] * n
    for r, (a, b) in enumerate(pairs):
        touching[a] |= 1 << r
        touching[b] |= 1 << r
    return [touching[b] for _, b in pairs]


def lifted_vc(space: HypothesisSpace) -> "tuple[int, PairSet]":
    """d_sim = vc(lift(H)) with its witness pairs; (0, ()) when n < 2.

    A depth-first search over min-centred star forests: unions of
    vertex-disjoint stars, each centred at its block's smallest vertex.
    There is one per vertex partition, and dropping a star forest's last
    rank leaves one, so the search, blocking by ``_star_blocks``, reaches
    each of them.  Within a partition
    the star union is the lexicographically smallest spanning forest, so the
    witness -- the smallest rank set of maximum size -- is the
    lexicographically smallest maximum shattered pair set of the whole
    lifted space.
    """
    n = space.domain_size
    if n < 2:
        return 0, ()
    # h and its complement lift alike; keep the one labelling element 0 with 0
    top = (1 << n) - 1
    rows = {h ^ top if h & 1 else h for h in space.hypotheses}
    cols = _columns(rows, n)
    pairs = pair_domain(n)
    # the column of pair (a, b) flipped: 1 where a and b differ
    pair_cols = [cols[a] ^ cols[b] for a, b in pairs]
    # a forest over n vertices has at most n - 1 edges
    limit = min(n - 1, len(rows).bit_length() - 1)
    blocks = _star_blocks(n)
    best = _largest(pair_cols, blocks, [(1 << len(rows)) - 1], (), (1 << len(pairs)) - 1, limit)
    assert is_shattered(lift_space(space), best)
    return len(best), tuple(pairs[r] for r in best)
