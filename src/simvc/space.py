"""Finite binary hypothesis spaces and the restriction/shattering primitives.

A hypothesis labels every element of the domain {0, ..., n-1} with 0 or 1
and is stored as an integer whose bit j is the label of element j.  A space
is a set of hypotheses: its one constructor, ``HypothesisSpace(n, ints)``,
keeps each distinct int once, in increasing order, so equal sets are equal
spaces.  Bit strings are read only from the file format, by
``space_from_dict``.  Their lexicographic order appears only at output:
``bit_strings()`` lists the rows in it, files are written in it, and
``lex_cube`` gives the enumerations their order.

A subset is shattered when the restriction to it realizes all 2^|subset|
patterns.  ``is_shattered`` answers yes or no; the realized patterns
themselves, in lexicographic order, are ``restrict(space, subset).bit_strings()``.

The JSON file format for a space is::

    {"domain_size": n, "hypotheses": ["0101", ...]}

where character j of each string (left to right, 0-indexed) is the label of
element j; ``space_to_dict`` writes it and ``space_from_dict`` reads it.
Lifted spaces written by the CLI carry an additional
``"pair_domain_of": n`` field recording the base domain; it is ignored on
load.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Maximum domain size for original spaces, the ones that get lifted.  It
#: bounds sizes, not search time: exact VC computation is exponential.
DOMAIN_SIZE_CAP = 24

#: Maximum domain size accepted when loading a space from a file.  Equals
#: C(24, 2) so that lifted spaces written by the CLI round-trip.
LOAD_DOMAIN_SIZE_CAP = 276

#: Canonical subset form: strictly increasing domain indices.
Subset = tuple[int, ...]


def _bit_string(bits: int, length: int) -> str:
    """Character j is bit j."""
    # the sentinel bit keeps leading zeros, and the slice drops it again
    return format(bits | 1 << length, "b")[:0:-1]


def check_int(name: str, value: object) -> None:
    """Every integer the library takes passes here: exact ``int``, so no bool, float or string."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_range(
    name: str, value: object, low: int, high: "int | None" = None, shown: "str | None" = None
) -> None:
    """Every range the library takes passes here: an exact int in low..high, or at least low.

    The message shows the range as ``shown`` when given, else as ``low..high``.
    """
    check_int(name, value)
    if high is None:
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"{name} must be in {shown or f'{low}..{high}'}, got {value}")


class FrozenSlots:
    """A value whose ``__slots__`` fields are set once, by ``__init__``.

    The fields, in ``__slots__`` order, are also the constructor's arguments:
    equality, hashing and the repr go by them, and unpickling calls the
    constructor again, so it re-runs the checks there.  Assigning or deleting
    a field raises ``AttributeError``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{key}={value!r}" for key, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._values()


class HypothesisSpace(FrozenSlots):
    """A nonempty set of hypotheses, stored as its sorted tuple of distinct ints.

    ``hypotheses`` may be passed as any iterable of exact ints (no bool or
    float), in any order and with repeats.  Each hypothesis is an int whose
    bit j is the label of element j.  ``domain_size`` 0 is permitted only as
    the degenerate result of an empty restriction; :func:`space_from_dict`
    requires at least one element.
    """

    __slots__ = ("domain_size", "hypotheses")

    domain_size: int
    hypotheses: "tuple[int, ...]"

    def __init__(self, domain_size: int, hypotheses: Iterable[int]) -> None:
        check_range("domain_size", domain_size, 0)
        given = tuple(hypotheses)
        # one pass over the row types in C; only a space with a non-int row loops
        if set(map(type, given)) - {int}:
            for h in given:
                check_int("hypothesis", h)
        rows = tuple(sorted(set(given)))
        if not rows:
            raise ValueError("a hypothesis space must contain at least one hypothesis")
        # sorted, so only the two ends can fall outside [0, 2^n)
        for h in (rows[0], rows[-1]):
            if not 0 <= h < 1 << domain_size:
                raise ValueError(
                    f"hypothesis {h} does not fit a space over {domain_size} elements"
                )
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "hypotheses", rows)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def bit_strings(self) -> "list[str]":
        """The rows as bit strings, in lexicographic order."""
        return sorted(_bit_string(h, self.domain_size) for h in self.hypotheses)


def lex_cube(n: int) -> "tuple[int, ...]":
    """All 2^n hypotheses over [n], in the lexicographic order of their bit strings."""
    return tuple(sorted(range(1 << n), key=lambda h: _bit_string(h, n)))


def check_subset(domain_size: int, subset: Sequence[int]) -> None:
    """Validate a canonical subset: strictly increasing, in range."""
    prev = -1
    for e in subset:
        if not 0 <= e < domain_size:
            raise ValueError(
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
    return HypothesisSpace(len(subset), (_project(h, subset) for h in space.hypotheses))


def is_shattered(space: HypothesisSpace, subset: Sequence[int]) -> bool:
    """Does the restriction to ``subset`` realize all 2^|subset| patterns?"""
    check_subset(space.domain_size, subset)
    mask = sum(1 << e for e in subset)
    return len({h & mask for h in space.hypotheses}) == 1 << len(subset)


def space_to_dict(space: HypothesisSpace, *, pair_domain_of: "int | None" = None) -> dict:
    """Serializable form of a space; the rows are bit strings in lexicographic order."""
    doc: dict = {"domain_size": space.domain_size}
    if pair_domain_of is not None:
        doc["pair_domain_of"] = pair_domain_of
    doc["hypotheses"] = space.bit_strings()
    return doc


def space_from_dict(doc: dict, max_domain_size: int = LOAD_DOMAIN_SIZE_CAP) -> HypothesisSpace:
    """Parse the file format, the one reader of bit strings; extra keys are ignored.

    ``domain_size`` must lie in 1..``max_domain_size``, checked before any
    row is read, and each row must be ``domain_size`` characters ``0``/``1``.
    """
    if not isinstance(doc, dict):
        raise ValueError("space document must be a JSON object")
    try:
        domain_size = doc["domain_size"]
        rows = doc["hypotheses"]
    except KeyError as exc:
        raise ValueError(f"space document is missing key {exc.args[0]!r}") from None
    check_int("domain_size", domain_size)
    if not isinstance(rows, list) or not all(isinstance(s, str) for s in rows):
        raise ValueError("hypotheses must be a list of bit strings")
    check_range("domain_size", domain_size, 1, max_domain_size)
    for row in rows:
        if len(row) != domain_size:
            raise ValueError(f"hypothesis {row!r} has length {len(row)}, expected {domain_size}")
        # int(row, 2) alone would accept "0_1", "+1", " 1" and Unicode digits
        bad = [ch for ch in row if ch not in "01"]
        if bad:
            raise ValueError(f"invalid bit character {bad[0]!r} in {row!r}")
    return HypothesisSpace(domain_size, (int(row[::-1], 2) for row in rows))
