"""The similarity lift and the lifted VC dimension.

A hypothesis h labels a pair (w, x) 1 exactly when h(w) = h(x).  The two
orders of a pair always agree and a diagonal pair is always 1, so the
canonical pair domain is the unordered pairs {i < j}.  ``pair_domain(n)`` is
that domain in lexicographic order: a pair's index in it is its rank, the bit
it occupies in ``lift_hypothesis``.

A pair set shattered by a lifted space is a forest: around a cycle, a
labelling with exactly one 0-edge would connect two vertices by both an
all-equal path and a one-flip path.  Whether a forest is shattered depends
only on how its vertices split into trees, so ``lifted_vc`` runs the
engine's depth-first search over one forest per vertex partition, the
min-centred star forest.  It re-checks its witness from the definition on
the base rows: the witness pairs' agreement patterns must number 2^d.  No
lifted space is built for that.  The one thing kept between calls is each
n's search layout, its pairs and their star-forest blocks, which depends on
n alone.
"""

from __future__ import annotations

from functools import lru_cache

from .engine import _columns, _search
from .space import HypothesisSpace, check_int, check_range

#: A canonical pair (i, j) with i < j, and a sorted, deduplicated set of them.
Pair = tuple[int, int]
PairSet = tuple[Pair, ...]


def pair_domain(n: int) -> PairSet:
    """The C(n, 2) pairs (i, j), i < j, of [n] in lexicographic order.

    A pair's index in this tuple is its rank: the bit it occupies in a
    lifted hypothesis and its column in a lifted space.  The pairs (i, j)
    with j > i hold the n - 1 - i consecutive ranks after those of every
    smaller i; ``lift_hypothesis`` relies on that.
    """
    check_range("n", n, 0)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def lift_hypothesis(bits: int, n: int) -> int:
    """Pair labelling induced by the labelling ``bits`` of [n], as an int.

    The bit at the rank of pair (i, j) is 1 iff elements i and j carry the
    same label.  Each left endpoint i writes its run of ranks (see
    ``pair_domain``) as one shifted mask.
    """
    check_int("hypothesis", bits)
    check_range("n", n, 0)
    if not 0 <= bits < 1 << n:
        raise ValueError(f"hypothesis {bits} does not fit a domain of {n} elements")
    top = (1 << n) - 1
    out = rank = 0
    for i in range(n - 1):
        # bit j of same is 1 iff element j carries element i's label
        same = bits if (bits >> i) & 1 else bits ^ top
        out |= (same >> (i + 1)) << rank
        rank += n - 1 - i
    return out


def lift_space(space: HypothesisSpace) -> HypothesisSpace:
    """The space of the distinct lifted hypotheses over the pair domain.

    |lifted| <= |H|, strictly smaller whenever H contains a hypothesis and
    its complement (the lift cannot tell them apart).
    """
    n = space.domain_size
    if n < 2:
        raise ValueError(
            f"cannot lift a space over {n} element(s): the pair domain is empty "
            "(treat the lifted VC dimension as 0)"
        )
    m = n * (n - 1) // 2
    return HypothesisSpace(m, (lift_hypothesis(h, n) for h in space.hypotheses))


def _star_blocks(pairs: PairSet, n: int) -> "tuple[int, ...]":
    """Per pair rank, the ranks choosing it rules out of a min-centred star forest."""
    # Every centre so far is at most a < b, as ranks are lexicographic, so
    # choosing (a, b) makes b a leaf, and no later pair may touch b.
    touching = [0] * n
    for r, (a, b) in enumerate(pairs):
        touching[a] |= 1 << r
        touching[b] |= 1 << r
    return tuple(touching[b] for _, b in pairs)


@lru_cache(maxsize=32)
def _layout(n: int) -> "tuple[PairSet, tuple[int, ...]]":
    """``pair_domain(n)`` and its ``_star_blocks``, built once per n."""
    pairs = pair_domain(n)
    return pairs, _star_blocks(pairs, n)


def lifted_vc(space: HypothesisSpace) -> "tuple[int, PairSet]":
    """d_sim = vc(lift(H)) with its witness pairs; (0, ()) when n < 2.

    A depth-first search over min-centred star forests: unions of
    vertex-disjoint stars, each centred at its block's smallest vertex.
    There is one per vertex partition, and dropping a star forest's last
    rank leaves one, so the search, blocking by ``_star_blocks``, reaches
    each of them.  Within a partition the star union is the
    lexicographically smallest spanning forest, so the witness -- the
    smallest rank set of maximum size -- is the lexicographically smallest
    maximum shattered pair set of the whole lifted space.  Every call
    re-checks the witness from the definition on the base rows, without
    building the lifted space.
    """
    n = space.domain_size
    if n < 2:
        return 0, ()
    # h and its complement lift alike; keep the one labelling element 0 with 0
    top = (1 << n) - 1
    rows = {h ^ top if h & 1 else h for h in space.hypotheses}
    cols = _columns(rows, n)
    pairs, blocks = _layout(n)
    # the column of pair (a, b) flipped: 1 where a and b differ
    pair_cols = [cols[a] ^ cols[b] for a, b in pairs]
    # at most 2^(n-1) rows, so the row bound stops the search at a forest's n - 1 edges
    witness = tuple(pairs[r] for r in _search(pair_cols, blocks, len(rows)))
    # the definition on the base rows: h(a) = h(b) over the witness takes all 2^d patterns
    patterns = set()
    for h in space.hypotheses:
        pattern = 0
        for a, b in witness:
            pattern = pattern << 1 | ((h >> a) & 1 == (h >> b) & 1)
        patterns.add(pattern)
    if len(patterns) != 1 << len(witness):
        raise AssertionError(f"lifted_vc witness {witness} is not shattered")
    return len(witness), witness
