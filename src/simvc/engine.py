"""Exact VC-dimension computation.

The search is bottom-up and level-wise.  Shattered sets are closed under
taking subsets, so every shattered set of size m extends a shattered set of
size m-1: level m candidates are generated from the level m-1 frontier the
way frequent-itemset miners generate candidates (extend by a larger element,
require every (m-1)-subset to be on the frontier).  Each candidate is
checked by splitting the hypothesis set on one column at a time and bailing
out on the first one-sided split.  Candidates come out in lexicographic
order, so the first set of the top level is the witness.  ``vc_exact``
returns ``(d, subset)`` and re-checks the witness with ``is_shattered``.

The lifted dimension does not run through this search; see
``similarity.lifted_vc``, which reuses the column and split helpers here.

``vc_naive`` is an independent brute-force oracle: it tests every one of the
2^n subsets with a plain projection count and exists solely to cross-check
the engine.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import SimvcError
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


def _shatters(cols: Sequence[int], full: int, subset: Sequence[int]) -> bool:
    """Split the hypothesis set column by column; shattered iff no split is one-sided."""
    groups = [full]
    for e in subset:
        col = cols[e]
        nxt = []
        for g in groups:
            a = g & col
            if a == 0 or a == g:
                return False
            nxt.append(a)
            nxt.append(g ^ a)
        groups = nxt
    return True


Extensions = Callable[["tuple[int, ...]"], Iterable[int]]


def _larger(domain_size: int) -> Extensions:
    """Every element above a set's largest: the extensions of plain subsets."""
    return lambda s: range(s[-1] + 1 if s else 0, domain_size)


def _candidates(
    frontier: "list[tuple[int, ...]]", m: int, extensions: Extensions
) -> "list[tuple[int, ...]]":
    """Extend frontier sets by each element ``extensions`` yields (all larger
    than the set's last); prune candidates with a non-shattered (m-1)-subset.
    Output inherits the frontier's sorted order."""
    prev = set(frontier)
    out = []
    for s in frontier:
        for e in extensions(s):
            c = s + (e,)
            # dropping the last element gives s itself, already known shattered
            for t in range(m - 1):
                if c[:t] + c[t + 1 :] not in prev:
                    break
            else:
                out.append(c)
    return out


def _top_level(
    cols: Sequence[int], full: int, limit: int, extensions: Extensions
) -> "tuple[int, ...]":
    """Level-wise search up to size ``limit``; the first set of the top level.

    The family the extensions generate must be downward closed, so that
    every shattered member extends a shattered member one smaller.
    """
    best: "tuple[int, ...]" = ()
    frontier = [()]
    for m in range(1, limit + 1):
        level = [c for c in _candidates(frontier, m, extensions) if _shatters(cols, full, c)]
        if not level:
            break
        frontier = level
        best = frontier[0]
    return best


def vc_exact(space: HypothesisSpace) -> "tuple[int, Subset]":
    """d = vc(H) with its witness subset, the shape ``lifted_vc`` returns.

    Uses the a-priori bound dimension <= floor(log2 |H|) and hereditary
    level-wise pruning.  The witness is the lexicographically smallest
    maximum shattered subset.
    """
    cols = _columns(space.hypotheses, space.domain_size)
    count = len(space.hypotheses)
    limit = min(space.domain_size, count.bit_length() - 1)
    best = _top_level(cols, (1 << count) - 1, limit, _larger(space.domain_size))
    assert is_shattered(space, best)
    return len(best), best


def vc_naive(space: HypothesisSpace) -> int:
    """Brute-force oracle: test every subset of the domain, no pruning."""
    if space.domain_size > ORACLE_DOMAIN_CAP:
        raise SimvcError(
            f"oracle requires domain_size <= {ORACLE_DOMAIN_CAP}, got {space.domain_size}"
        )
    best = 0
    for mask in range(1, 1 << space.domain_size):
        width = bin(mask).count("1")
        if len({h & mask for h in space.hypotheses}) == 1 << width and width > best:
            best = width
    return best
