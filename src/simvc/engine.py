"""Exact VC-dimension computation.

The search is depth-first.  Shattered sets are closed under taking subsets,
so every shattered set extends a shattered set one smaller, and the search
grows sets one element at a time, trying elements in increasing order.  A
shattered set's columns cut the hypothesis set into 2^m nonempty groups;
adding an element splits each group by its column, and the extension is
abandoned at the first one-sided split.  Sets are visited in lexicographic
preorder and the best set is replaced only by a strictly longer one, so the
witness is the lexicographically smallest maximum shattered set.

The search is a branch and bound on one best set, the longest found so far,
of length L.  A set of size m beats it only by adding L + 1 - m more
elements, so at least that many candidates must remain, and every group must
hold at least 2^(L+1-m) rows, one for each pattern on the added elements.
The count is tested where an element is tried: a candidate that would leave
too few candidates is skipped unsplit, and its split is abandoned at the
first part with too few rows, so no child that cannot beat L is built.  Each
split hands its smallest part's row count to the child, which stops its loop
once that or its candidates fall short.  The bound cuts only branches that
hold no set longer than L, and only a strictly longer set replaces the best,
so the witness is the one the unbounded search returns.  At L = m the row
floor is one, and the test is the one-sided split.  The row bound is also
the only stop: 2^m groups of |H| rows always leave one below 2^(L+1-m) rows
once L = floor(log2 |H|), so the search ends there without a cap of its own.

``vc_exact`` returns ``(d, subset)`` and re-checks the witness with
``is_shattered``; a failed re-check raises ``AssertionError``, also under
``python -O``.

Candidates are one bitmask, taken lowest bit first; choosing element e drops
``blocks[e]`` from it.  ``vc_exact`` blocks nothing; ``similarity.lifted_vc``
searches pair columns and blocks pairs that would break a star forest.

``vc_naive`` is the independent brute-force oracle, kept to cross-check the
engine: the first subset ``is_shattered`` accepts, largest size first and
lexicographic within a size, is by definition ``vc_exact``'s witness.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .space import HypothesisSpace, Subset, is_shattered

#: vc_naive enumerates 2^n subsets; beyond this it is no longer an oracle.
ORACLE_DOMAIN_CAP = 20


def _columns(rows: Iterable[int], width: int) -> "list[int]":
    """Column bitmasks: bit i of cols[j] is row i's label of element j."""
    cols = [0] * width
    for i, b in enumerate(rows):
        while b:
            low = b & -b
            cols[low.bit_length() - 1] |= 1 << i
            b ^= low
    return cols


def _search(cols: Sequence[int], blocks: Sequence[int], count: int) -> "tuple[int, ...]":
    """The first longest shattered set, in preorder, of the ``count`` rows' columns.

    ``grow`` extends a shattered set ``chosen``: ``groups`` are the row
    groups its columns cut the rows into, ``smallest`` is the popcount of
    the smallest of them, and ``allowed`` holds the elements above its last
    that may extend it.  ``best`` is the longest set found so far, replaced
    only by a strictly longer one.  To beat it, an element e must leave at
    least need - 1 candidates once ``blocks[e]`` is dropped, and splitting
    every group by its column must leave at least 2^(need - 1) rows in each
    part, where need = len(best) + 1 - len(chosen).  Element e is abandoned
    before it splits when the first count fails and at the first part that
    fails the second, so no child that cannot beat ``best`` is built.
    """
    best: "tuple[int, ...]" = ()

    def grow(groups: "list[int]", smallest: int, chosen: "tuple[int, ...]", allowed: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        while allowed:
            need = len(best) + 1 - len(chosen)
            # groups never change in this call, allowed only shrinks and best
            # only grows, so once the bound fails it fails for every later candidate
            if allowed.bit_count() < need or smallest < 1 << need:
                return
            e = (allowed & -allowed).bit_length() - 1
            allowed ^= 1 << e
            rest = allowed & ~blocks[e]
            if rest.bit_count() < need - 1:
                continue
            floor = 1 << (need - 1)
            col = cols[e]
            split = []
            low = smallest
            for g in groups:
                a = g & col
                b = g ^ a
                rows = a.bit_count()
                if rows < floor:
                    break
                if rows < low:
                    low = rows
                rows = b.bit_count()
                if rows < floor:
                    break
                if rows < low:
                    low = rows
                split.append(a)
                split.append(b)
            else:
                grow(split, low, chosen + (e,), rest)

    grow([(1 << count) - 1], count, (), (1 << len(cols)) - 1)
    return best


def vc_exact(space: HypothesisSpace) -> "tuple[int, Subset]":
    """d = vc(H) with its witness subset, the shape ``lifted_vc`` returns.

    The witness is the lexicographically smallest maximum shattered subset.
    The search has no cap of its own; its row bound ends it once the best
    set reaches d <= floor(log2 |H|).
    """
    best = _search(
        _columns(space.hypotheses, space.domain_size),
        [0] * space.domain_size,
        len(space.hypotheses),
    )
    if not is_shattered(space, best):
        raise AssertionError(f"vc_exact witness {best} is not shattered")
    return len(best), best


def vc_naive(space: HypothesisSpace) -> "tuple[int, Subset]":
    """Brute-force oracle: the first shattered subset, largest first, lexicographic in a size."""
    if space.domain_size > ORACLE_DOMAIN_CAP:
        raise ValueError(
            f"oracle requires domain_size <= {ORACLE_DOMAIN_CAP}, got {space.domain_size}"
        )
    for m in range(space.domain_size, -1, -1):
        for subset in combinations(range(space.domain_size), m):
            if is_shattered(space, subset):
                return m, subset
