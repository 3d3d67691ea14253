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
``blocks[e]`` from it.  The rows are one bitmask too, the search's starting
group.  ``vc_exact`` blocks nothing and starts from every row;
``similarity.lifted_vc`` searches pair columns, blocks pairs that would break
a star forest and leaves out rows the lift cannot tell apart.

Each space is transposed once.  ``_columns`` turns the rows into column
bitmasks with one ``bytes.translate`` per column, and keeps its last result,
so the ``vc_exact`` and ``lifted_vc`` calls on one space share it.

``vc_naive`` is the independent brute-force oracle, kept to cross-check the
engine: the first subset ``is_shattered`` accepts, largest size first and
lexicographic within a size, is by definition ``vc_exact``'s witness.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .space import HypothesisSpace, Subset, check_range, is_shattered

#: vc_naive enumerates 2^n subsets; beyond this it is no longer an oracle.
ORACLE_DOMAIN_CAP = 20

#: Byte-to-digit tables: _BIT_TABLES[j] spells a byte as b"1" when its bit j is set, else b"0".
#: Over the bytes 0..255, bit j runs 2^j zeros, then 2^j ones, and repeats.
_BIT_TABLES = tuple((b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8))


@lru_cache(maxsize=1)
def _columns(rows: "tuple[int, ...]", width: int) -> "tuple[int, ...]":
    """Column bitmasks: bit i of cols[j] is row i's label of element j.

    Each row becomes its little-endian bytes, last row first, so the lane of
    columns 8k..8k+7 is every byte k; translating a lane by bit j's table
    spells column 8k + j in binary with row 0 as the lowest digit.
    """
    lanes = (width + 7) // 8
    if lanes == 1:
        data = bytes(rows[::-1])  # the common case, packed in C
    else:
        data = b"".join([h.to_bytes(lanes, "little") for h in reversed(rows)])
    return tuple(
        int(data[k::lanes].translate(table), 2)
        for k in range(lanes)
        for table in _BIT_TABLES[: width - 8 * k]
    )


def _search(cols: Sequence[int], blocks: Sequence[int], row_mask: int) -> "tuple[int, ...]":
    """The first longest shattered set, in preorder, of the columns on the rows of ``row_mask``.

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

    grow([row_mask], row_mask.bit_count(), (), (1 << len(cols)) - 1)
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
        (1 << len(space.hypotheses)) - 1,
    )
    if not is_shattered(space, best):
        raise AssertionError(f"vc_exact witness {best} is not shattered")
    return len(best), best


def vc_naive(space: HypothesisSpace) -> "tuple[int, Subset]":
    """Brute-force oracle: the first shattered subset, largest first, lexicographic in a size."""
    check_range("domain_size", space.domain_size, 0, ORACLE_DOMAIN_CAP)
    for m in range(space.domain_size, -1, -1):
        for subset in combinations(range(space.domain_size), m):
            if is_shattered(space, subset):
                return m, subset
