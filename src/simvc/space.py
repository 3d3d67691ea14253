"""Finite binary hypothesis spaces and the restriction/shattering primitives.

A hypothesis labels every element of the domain {0, ..., n-1} with 0 or 1
and is stored as an integer whose bit j is the label of element j.  Spaces
are always kept in canonical form -- deduplicated and sorted by the
lexicographic order of their bit strings -- so that space equality,
serialization and witness tie-breaking are deterministic.

The JSON file format for a space is::

    {"domain_size": n, "hypotheses": ["0101", ...]}

where character j of each string (left to right, 0-indexed) is the label of
element j.  Lifted spaces written by the CLI carry an additional
``"pair_domain_of": n`` field recording the base domain; it is ignored on
load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import SimvcError

#: Maximum domain size for original spaces.  Exact VC computation is
#: exponential; this keeps supported inputs desk-scale and pattern values
#: within a machine word.
DOMAIN_SIZE_CAP = 24

#: Maximum domain size accepted when loading a space from a file.  Equals
#: C(24, 2) so that lifted spaces written by the CLI round-trip.
LOAD_DOMAIN_SIZE_CAP = 276

#: Largest subset size for which a full pattern table may be asked for.
PATTERN_BITS_CAP = 24

#: Canonical subset form: strictly increasing domain indices.
Subset = tuple[int, ...]


def _bit_string(bits: int, length: int) -> str:
    """Character j is bit j; comparing these strings is the canonical order."""
    # the sentinel bit keeps leading zeros, and the slice drops it again
    return format(bits | 1 << length, "b")[:0:-1]


def _lex_less(a: int, b: int) -> bool:
    """Does a's bit string sort before b's?

    The strings first differ at the lowest set bit of a ^ b.
    """
    diff = a ^ b
    return b & diff & -diff != 0


@dataclass(frozen=True, slots=True)
class HypothesisSpace:
    """Canonical (deduplicated, lexicographically sorted) set of hypotheses.

    Each hypothesis is an int whose bit j is the label of element j.
    ``domain_size`` 0 is permitted only as the degenerate result of an empty
    restriction; :func:`make_space` requires at least one element.
    """

    domain_size: int
    hypotheses: "tuple[int, ...]"

    def __post_init__(self) -> None:
        if self.domain_size < 0:
            raise ValueError("domain_size must be non-negative")
        if not self.hypotheses:
            raise SimvcError("a hypothesis space must contain at least one hypothesis")
        top = 1 << self.domain_size
        prev = None
        for h in self.hypotheses:
            if not 0 <= h < top:
                raise SimvcError(
                    f"hypothesis {h} does not fit a space over {self.domain_size} elements"
                )
            if prev is not None and not _lex_less(prev, h):
                raise ValueError("hypotheses must be deduplicated and lexicographically sorted")
            prev = h

    def __len__(self) -> int:
        return len(self.hypotheses)

    def bit_strings(self) -> "list[str]":
        return [_bit_string(h, self.domain_size) for h in self.hypotheses]


def _canonical_space(domain_size: int, bits_iter: Iterable[int]) -> HypothesisSpace:
    rows = sorted(set(bits_iter), key=lambda b: _bit_string(b, domain_size))
    return HypothesisSpace(domain_size, tuple(rows))


def make_space(
    domain_size: int,
    raw_hypotheses: Iterable[Union[str, int]],
    *,
    max_domain_size: int = DOMAIN_SIZE_CAP,
) -> HypothesisSpace:
    """Build the canonical space from raw bit vectors.

    Input order and duplicates are irrelevant to the result.  Raw hypotheses
    may be bit strings like ``"0101"`` (character j labels element j) or
    ints (bit j labels element j).
    """
    if domain_size < 1:
        raise ValueError("domain_size must be at least 1")
    if domain_size > max_domain_size:
        raise SimvcError(
            f"domain_size {domain_size} exceeds the supported maximum {max_domain_size}"
        )
    bits_list = []
    for raw in raw_hypotheses:
        if isinstance(raw, int):
            if not 0 <= raw < 1 << domain_size:
                raise SimvcError(
                    f"hypothesis {raw} does not fit a space over {domain_size} elements"
                )
            bits_list.append(raw)
            continue
        if len(raw) != domain_size:
            raise SimvcError(
                f"hypothesis {raw!r} has length {len(raw)}, expected {domain_size}"
            )
        bad = [ch for ch in raw if ch not in "01"]
        if bad:
            raise ValueError(f"invalid bit character {bad[0]!r} in {raw!r}")
        bits_list.append(int(raw[::-1], 2))
    if not bits_list:
        raise SimvcError("no hypotheses supplied")
    return _canonical_space(domain_size, bits_list)


def check_subset(domain_size: int, subset: Sequence[int]) -> None:
    """Validate a canonical subset: strictly increasing, in range."""
    prev = -1
    for e in subset:
        if not 0 <= e < domain_size:
            raise SimvcError(
                f"domain index {e} out of range for domain of size {domain_size}"
            )
        if e <= prev:
            raise ValueError("subset elements must be strictly increasing")
        prev = e


def _project(bits: int, subset: Sequence[int]) -> int:
    p = 0
    for t, e in enumerate(subset):
        p |= ((bits >> e) & 1) << t
    return p


def restrict(space: HypothesisSpace, subset: Sequence[int]) -> HypothesisSpace:
    """Project the space onto ``subset``; column t is subset[t].

    The empty restriction is the space over 0 elements containing exactly
    the empty hypothesis.
    """
    check_subset(space.domain_size, subset)
    return _canonical_space(len(subset), (_project(h, subset) for h in space.hypotheses))


def pattern_count(space: HypothesisSpace, subset: Sequence[int]) -> int:
    """Number of distinct projections onto ``subset``; equals |H restricted to subset|."""
    check_subset(space.domain_size, subset)
    return len({_project(h, subset) for h in space.hypotheses})


@dataclass(frozen=True, slots=True)
class ShatterWitness:
    """A subset certified shattered, with the full table of realized patterns."""

    subset: "tuple[int, ...]"
    patterns: "tuple[str, ...]"

    def __post_init__(self) -> None:
        if len(self.patterns) != 1 << len(self.subset):
            raise ValueError("witness pattern table must have exactly 2^|subset| entries")

    @property
    def shattered(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class MissingPattern:
    """Evidence of non-shattering: the lexicographically smallest unrealized pattern."""

    subset: "tuple[int, ...]"
    missing: str

    @property
    def shattered(self) -> bool:
        return False


def is_shattered(
    space: HypothesisSpace, subset: Sequence[int]
) -> Union[ShatterWitness, MissingPattern]:
    """Shattering test: does the restriction realize all 2^|subset| patterns?

    Returns a :class:`ShatterWitness` when it does, otherwise a
    :class:`MissingPattern` naming the lexicographically smallest pattern
    not realized.
    """
    check_subset(space.domain_size, subset)
    m = len(subset)
    if m > PATTERN_BITS_CAP:
        raise SimvcError(
            f"subset of size {m} exceeds the {PATTERN_BITS_CAP}-bit pattern budget"
        )
    observed = {_project(h, subset) for h in space.hypotheses}
    realized = sorted(_bit_string(p, m) for p in observed)
    if len(realized) == 1 << m:
        return ShatterWitness(tuple(subset), tuple(realized))
    # pattern i in lexicographic order is i written with m binary digits
    gap = next(
        (i for i, text in enumerate(realized) if text != format(i, f"0{m}b")), len(realized)
    )
    return MissingPattern(tuple(subset), format(gap, f"0{m}b"))


def space_to_dict(space: HypothesisSpace, *, pair_domain_of: "int | None" = None) -> dict:
    """Serializable form of a space; always emits canonical order."""
    doc: dict = {"domain_size": space.domain_size}
    if pair_domain_of is not None:
        doc["pair_domain_of"] = pair_domain_of
    doc["hypotheses"] = space.bit_strings()
    return doc


def space_from_dict(doc: dict) -> HypothesisSpace:
    """Parse the file format; extra keys such as ``pair_domain_of`` are ignored."""
    if not isinstance(doc, dict):
        raise ValueError("space document must be a JSON object")
    try:
        domain_size = doc["domain_size"]
        hypotheses = doc["hypotheses"]
    except KeyError as exc:
        raise ValueError(f"space document is missing key {exc.args[0]!r}") from None
    if not isinstance(domain_size, int) or isinstance(domain_size, bool):
        raise ValueError("domain_size must be an integer")
    if not isinstance(hypotheses, list) or not all(isinstance(s, str) for s in hypotheses):
        raise ValueError("hypotheses must be a list of bit strings")
    return make_space(domain_size, hypotheses, max_domain_size=LOAD_DOMAIN_SIZE_CAP)
