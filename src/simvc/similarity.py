"""The similarity lift and its pair-domain machinery.

A hypothesis h induces a labelling of pairs: a pair (w, x) is labelled 1
exactly when h(w) = h(x).  The canonical pair domain is the set of unordered
pairs {i < j} without the diagonal -- the two orders of a pair always carry
identical labels and a diagonal pair is always labelled 1, so neither can
ever contribute to a shattered set.

Pair sets double as graphs (edges over the endpoint vertices).  A pair set
shattered by any lifted space must be acyclic: around a cycle, a labelling
with exactly one 0-edge would connect two vertices by both an all-equal path
and a one-flip path.  The edge labellings of a forest are the vertex
labellings of its endpoints up to flipping each tree, so whether a forest is
shattered depends only on how its vertices split into trees.  ``lifted_vc``
therefore searches one forest per vertex partition: the min-centred star
forest, which joins every block to its smallest vertex.  ``balanced_labelling``
constructs the per-component half-and-half labelling used to bound sparse
families.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .engine import Extensions, _columns, _top_level
from .errors import SimvcError
from .space import HypothesisSpace, _canonical_space, pattern_count

#: A canonical pair (i, j) with i < j, and a sorted, deduplicated set of them.
Pair = tuple[int, int]
PairSet = tuple[Pair, ...]


class PairDomain:
    """All C(n, 2) canonical pairs of a base domain, in lexicographic order.

    rank and unrank are inverse; rank r is the bit position pair r occupies
    in a lifted hypothesis.
    """

    __slots__ = ("base_size", "pairs", "_rank")

    def __init__(self, base_size: int):
        if base_size < 1:
            raise ValueError("base_size must be at least 1")
        self.base_size = base_size
        self.pairs: "tuple[tuple[int, int], ...]" = tuple(
            (i, j) for i in range(base_size) for j in range(i + 1, base_size)
        )
        self._rank = {p: r for r, p in enumerate(self.pairs)}

    def __len__(self) -> int:
        return len(self.pairs)

    def rank(self, first: int, second: int) -> int:
        if first == second:
            raise ValueError("diagonal pairs are not part of the canonical domain")
        key = (first, second) if first < second else (second, first)
        try:
            return self._rank[key]
        except KeyError:
            raise SimvcError(
                f"pair {key} out of range for base domain of size {self.base_size}"
            ) from None

    def unrank(self, rank: int) -> "tuple[int, int]":
        if not 0 <= rank < len(self.pairs):
            raise SimvcError(
                f"pair rank {rank} out of range for base domain of size {self.base_size}"
            )
        return self.pairs[rank]


@lru_cache(maxsize=64)
def pair_domain(base_size: int) -> PairDomain:
    """Shared immutable PairDomain instance for ``base_size``."""
    return PairDomain(base_size)


@lru_cache(maxsize=1 << 15)
def lift_hypothesis(bits: int, n: int) -> int:
    """Pair labelling induced by the labelling ``bits`` of [n], as an int.

    The bit at the rank of pair (i, j) is 1 iff elements i and j carry the
    same label.
    """
    if not 0 <= bits < 1 << n:
        raise SimvcError(f"hypothesis {bits} does not fit a domain of {n} elements")
    out = 0
    r = 0
    for i in range(n):
        bi = (bits >> i) & 1
        for j in range(i + 1, n):
            if bi == ((bits >> j) & 1):
                out |= 1 << r
            r += 1
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


def canonical_pairs(pairs: Iterable[Sequence[int]]) -> "tuple[tuple[int, int], ...]":
    """Normalize to the canonical pair-set form: (i, j) with i < j, deduplicated, sorted."""
    out = set()
    for p in pairs:
        a, b = p
        if a == b:
            raise ValueError(f"diagonal pair ({a}, {b}) is not a valid pair")
        if a < 0 or b < 0:
            raise ValueError("pair endpoints must be non-negative")
        out.add((a, b) if a < b else (b, a))
    return tuple(sorted(out))


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


@dataclass(frozen=True, slots=True)
class ForestCheck:
    """Acyclicity verdict for a pair graph, with a certifying cycle when cyclic."""

    acyclic: bool
    cycle: "Optional[tuple[tuple[int, int], ...]]"

    def __bool__(self) -> bool:
        return self.acyclic


def _root(parent: dict, x: int) -> int:
    while x in parent:
        x = parent[x]
    return x


def _tree_path(adj: dict, start: int, goal: int) -> "list[tuple[int, int]]":
    """Edge path between two vertices of the same tree (BFS, deterministic)."""
    prev = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            break
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = []
    v = goal
    while prev[v] is not None:
        u = prev[v]
        path.append((u, v) if u < v else (v, u))
        v = u
    path.reverse()
    return path


def is_forest(pairs: Iterable[Sequence[int]]) -> ForestCheck:
    """True iff the pair graph is acyclic; otherwise one cycle's edge list."""
    ps = canonical_pairs(pairs)
    parent: dict = {}
    adj: dict = {}
    for a, b in ps:
        ra, rb = _root(parent, a), _root(parent, b)
        if ra == rb:
            cycle = tuple(_tree_path(adj, a, b)) + ((a, b),)
            return ForestCheck(False, cycle)
        parent[ra] = rb
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return ForestCheck(True, None)


@dataclass(frozen=True, slots=True)
class ComponentPartition:
    """Connected components of a pair graph over its endpoint vertex set."""

    components: "tuple[tuple[int, ...], ...]"

    @property
    def tree_count(self) -> int:
        return len(self.components)

    @property
    def vertex_count(self) -> int:
        return sum(len(c) for c in self.components)


def components(pairs: Iterable[Sequence[int]]) -> ComponentPartition:
    """Connected components, each sorted, ordered by smallest vertex."""
    ps = canonical_pairs(pairs)
    parent: dict = {}
    acyclic = True
    for a, b in ps:
        ra, rb = _root(parent, a), _root(parent, b)
        if ra == rb:
            acyclic = False
        else:
            parent[ra] = rb
    groups: dict = {}
    for v in {v for p in ps for v in p}:
        groups.setdefault(_root(parent, v), []).append(v)
    comps = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    if acyclic:
        # counting identity for forests: |V| = |E| + number of trees
        assert sum(len(c) for c in comps) == len(ps) + len(comps)
    return ComponentPartition(comps)


def balanced_labelling(pairs: Iterable[Sequence[int]], domain_size: int) -> int:
    """Label floor(|C|/2) vertices of each component 1, the rest 0.

    The smallest-indexed vertices of each component receive the 1s; vertices
    outside every component are 0.  Requires the pair set to be a forest.
    """
    ps = canonical_pairs(pairs)
    fc = is_forest(ps)
    if not fc:
        raise SimvcError(f"pair set contains a cycle: {fc.cycle}")
    bits = 0
    for comp in components(ps).components:
        for v in comp:
            if v >= domain_size:
                raise SimvcError(
                    f"vertex {v} out of range for domain of size {domain_size}"
                )
        for v in comp[: len(comp) // 2]:
            bits |= 1 << v
    return bits


def _star_extensions(pairs: "Sequence[Pair]") -> Extensions:
    """Pair ranks that keep a min-centred star forest one when added last."""

    def extensions(ranks: "tuple[int, ...]") -> "list[int]":
        leaves = 0
        for r in ranks:
            leaves |= 1 << pairs[r][1]
        # Every centre so far is at most a < b, as ranks are lexicographic, so
        # pair (a, b) keeps a star forest iff neither end is already a leaf.
        return [
            e
            for e in range(ranks[-1] + 1 if ranks else 0, len(pairs))
            if not ((leaves >> pairs[e][0]) | (leaves >> pairs[e][1])) & 1
        ]

    return extensions


def lifted_vc(space: HypothesisSpace) -> "tuple[int, PairSet]":
    """d_sim = vc(lift(H)) with its witness pairs; (0, ()) when n < 2.

    A level-wise search over min-centred star forests: unions of
    vertex-disjoint stars, each centred at its block's smallest vertex.
    There is one per vertex partition and the family is downward closed, so
    the usual hereditary pruning applies.  Within a partition the star union
    is the lexicographically smallest spanning forest, so the witness -- the
    smallest rank set on the top level -- is the lexicographically smallest
    maximum shattered pair set of the whole lifted space.
    """
    n = space.domain_size
    if n < 2:
        return 0, ()
    # h and its complement lift alike; keep the one labelling element 0 with 0
    top = (1 << n) - 1
    rows = {h ^ top if h & 1 else h for h in space.hypotheses}
    cols = _columns(rows, n)
    pairs = pair_domain(n).pairs
    # the column of pair (a, b) flipped: 1 where a and b differ
    pair_cols = [cols[a] ^ cols[b] for a, b in pairs]
    # a forest over n vertices has at most n - 1 edges
    limit = min(n - 1, len(rows).bit_length() - 1)
    best = _top_level(pair_cols, (1 << len(rows)) - 1, limit, _star_extensions(pairs))
    assert pattern_count(lift_space(space), best) == 1 << len(best)
    return len(best), tuple(pairs[r] for r in best)
