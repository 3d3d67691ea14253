"""The similarity lift and the lifted VC dimension.

A hypothesis h labels a pair (w, x) 1 exactly when h(w) = h(x).  The two
orders of a pair always agree and a diagonal pair is always 1, so the
canonical pair domain is the unordered pairs {i < j}.  ``pair_domain(n)`` is
that domain in lexicographic order, and the one place the order is decided:
a pair's index in it is its rank, the bit it occupies in ``lift_hypothesis``.

A pair set shattered by a lifted space is a forest: around a cycle, a
labelling with exactly one 0-edge would connect two vertices by both an
all-equal path and a one-flip path.  Whether a forest is shattered depends
only on how its vertices split into trees, so ``lifted_vc`` runs the
engine's depth-first search over one forest per vertex partition, the
min-centred star forest, and re-checks its witness with ``is_shattered`` on
the lifted space.
"""

from __future__ import annotations

from functools import lru_cache

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
