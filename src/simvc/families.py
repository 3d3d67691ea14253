"""Generators for concrete hypothesis-space families and seeded space streams.

Randomness is pinned to SplitMix64 rather than a standard library generator
so that seeds mean the same thing in any reimplementation.  A random space
of a given size draws 64-bit values, keeps the low n bits (exactly uniform,
since 2^n divides 2^64) and collects distinct labellings until the requested
size is reached.  Streams derive the i-th space's seed from the i-th output
of SplitMix64 run on the base seed.  Seeds are the 64-bit values
0..2^64-1; any other seed is an input error rather than an alias.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, islice
from typing import Iterator, Optional

from .space import DOMAIN_SIZE_CAP, FrozenSlots, HypothesisSpace, check_range, lex_cube

#: Full enumeration of 2^(2^n) - 1 nonempty spaces is feasible only here.
ENUMERATION_CAP = 4

_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int) -> Iterator[int]:
    """The documented SplitMix64 sequence for ``seed`` (64-bit outputs).

    state += 0x9E3779B97F4A7C15; z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31 (all mod 2^64).
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


#: Each family kind and the parameters it takes besides n.
FAMILY_PARAMS = {
    "k_sparse": ("k",),
    "full_cube": (),
    "random": ("size", "seed"),
    "exhaustive": (),
}

#: Spec-file spellings of a kind besides its name in ``FAMILY_PARAMS``.
_KIND_ALIASES = {"ksparse": "k_sparse", "cube": "full_cube"}

#: The keys a spec-file entry may have.
_SPEC_KEYS = frozenset(("family", "n", "k", "size", "seed"))


class FamilySpec(FrozenSlots):
    """Description of one generated family instance, kept for provenance.

    The constructor is the one place a family's parameters are checked, so
    a bad spec fails before any space is built, and ``space_at`` builds
    every space from a spec without checking it again.
    """

    __slots__ = ("kind", "n", "k", "size", "seed")

    kind: str
    n: int
    k: Optional[int]
    size: Optional[int]
    seed: Optional[int]

    def __init__(
        self,
        kind: str,
        n: int,
        k: Optional[int] = None,
        size: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        if kind not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {kind!r}")
        takes = FAMILY_PARAMS[kind]
        for key, value in zip(("k", "size", "seed"), (k, size, seed)):
            if value is not None and key not in takes:
                raise ValueError(f"{kind} does not take {key}")
        check_range("n", n, 1, ENUMERATION_CAP if kind == "exhaustive" else DOMAIN_SIZE_CAP)
        # every parameter given is one the kind takes, so one is missing iff fewer are given
        if (k is not None) + (size is not None) + (seed is not None) < len(takes):
            raise ValueError(f"{kind} requires {' and '.join(takes)}")
        if k is not None:
            check_range("k", k, 0, n)
        if size is not None:
            check_range("size", size, 1, 1 << n, f"1..2^{n}")
        if seed is not None:
            # SplitMix64 reduces its seed mod 2^64, so a seed outside this range would alias
            check_range("seed", seed, 0, _MASK64, "0..2^64-1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "seed", seed)

    def to_dict(self) -> dict:
        doc = {"family": self.kind, "n": self.n}
        for key in ("k", "size", "seed"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FamilySpec":
        if not isinstance(doc, dict):
            raise ValueError(f"family spec must be an object, got {doc!r}")
        if not doc.keys() <= _SPEC_KEYS:
            key = next(key for key in doc if key not in _SPEC_KEYS)
            raise ValueError(f"malformed family spec {doc!r}: unknown key {key!r}")
        raw_kind = doc.get("family")
        kind = _KIND_ALIASES.get(raw_kind, raw_kind) if isinstance(raw_kind, str) else None
        if kind not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {raw_kind!r}")
        if "n" not in doc:
            raise ValueError("family spec requires n")
        # a null parameter is an absent one; the constructor checks each value,
        # so a float, bool or string fails there
        return cls(kind, doc["n"], doc.get("k"), doc.get("size"), doc.get("seed"))


def k_sparse(n: int, k: int) -> HypothesisSpace:
    """All labellings of [n] with at most k ones; |H| = sum_{w<=k} C(n, w)."""
    return space_at(FamilySpec("k_sparse", n, k=k), 0)


def full_cube(n: int) -> HypothesisSpace:
    """All 2^n labellings of [n]."""
    return space_at(FamilySpec("full_cube", n), 0)


def random_space(n: int, size: int, seed: int) -> HypothesisSpace:
    """Uniformly sampled space of ``size`` distinct hypotheses, reproducible from seed."""
    return space_at(FamilySpec("random", n, size=size, seed=seed), 0)


def random_space_seeds(n: int, size: int, samples: int, seed: int) -> Iterator[int]:
    """The first ``samples`` SplitMix64 outputs of ``seed``: one seed per space of a stream.

    Space i of the stream is ``random_space(n, size, s)`` for its i-th seed s,
    built apart from the others.  The arguments are checked at the call.
    """
    FamilySpec("random", n, size=size, seed=seed)
    check_range("samples", samples, 1)
    return islice(splitmix64_stream(seed), samples)


def enumerate_spaces(n: int) -> Iterator[HypothesisSpace]:
    """Every nonempty space over [n] exactly once, in a deterministic order.

    Space i is ``space_at(FamilySpec("exhaustive", n), i)``.  ``n`` is
    checked at the call.
    """
    spec = FamilySpec("exhaustive", n)
    return map(partial(space_at, spec), range(space_count(spec)))


@lru_cache(maxsize=ENUMERATION_CAP)
def _cube(n: int) -> "tuple[int, ...]":
    """``lex_cube(n)``, computed once per n: ``space_at`` needs it for every space."""
    return lex_cube(n)


def _image_table(targets: "list[int]") -> "list[int]":
    """Entry m is the mask whose bits are ``targets[i]`` for each bit i of m."""
    table = [0] * (1 << len(targets))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | 1 << targets[low.bit_length() - 1]
    return table


def _orbit_masks(n: int) -> "list[tuple[int, int]]":
    """``(mask, orbit_size)`` of one space per orbit of the domain symmetries on spaces over [n].

    The symmetries are the n! * 2^n maps that permute the domain and XOR
    every hypothesis with a fixed mask; d and d_sim are invariant under
    them.  The mask selects cube rows as in ``space_at``, so the space is
    ``space_at(FamilySpec("exhaustive", n), mask - 1)``.  Each is the first
    member of its orbit in mask order, representatives come in that order,
    and the orbit sizes sum to 2^(2^n) - 1.  Only the spaces holding at most
    half the cube are closed into orbits; the others are the complements of
    those.  ``n`` is not checked.
    """
    cube = _cube(n)
    count = len(cube)
    half = count // 2
    low_bits = (1 << half) - 1
    full = (1 << count) - 1
    index = {h: i for i, h in enumerate(cube)}
    top = (1 << n) - 1
    # two maps generate all n! * 2^n symmetries: the n-cycle followed by the
    # flip of element 0, and the transposition (0 1).  At n = 1 the first is
    # the flip, which generates them alone, so it stands in for the second.
    # Each is a table from cube position to the position of the image.
    cycle_flip = [index[(h << 1 | h >> (n - 1)) & top ^ 1] for h in cube]
    swap = [index[h ^ ((h ^ h >> 1) & 1) * 3] for h in cube] if n > 1 else cycle_flip
    # each generator maps a space's mask one half at a time
    (a_low, a_high), (b_low, b_high) = [
        (_image_table(targets[:half]), _image_table(targets[half:]))
        for targets in (cycle_flip, swap)
    ]
    # every symmetry permutes the cube, so complementing a space (m -> full ^ m)
    # maps each orbit onto one of the same size, and it reverses mask order.
    # The spaces holding more than half the cube are therefore marked as seen
    # up front: row ``high`` of the marks is the popcount of each low half,
    # translated to 1 where it and the weight of ``high`` exceed half the cube.
    weight = bytes(m.bit_count() for m in range(1 << half))
    heavy = [bytes(w + v > half for w in range(256)) for v in range(half + 1)]
    seen = bytearray(1 << count)
    for high in range(1 << half):
        seen[high << half:(high + 1) << half] = weight.translate(heavy[weight[high]])
    # each lighter space is visited once: a closure marks its orbit, and the
    # next representative is the next unmarked mask.  An orbit lighter than
    # half the cube also stands for its complement, whose first mask is the
    # complement of the orbit's last; the empty space's complement is the cube.
    representatives = [(full, 1)]
    mask = seen.find(0, 1)
    while mask != -1:
        seen[mask] = 1
        orbit = [mask]
        for m in orbit:  # also visits the images appended along the way
            low, high = m & low_bits, m >> half
            image = a_low[low] | a_high[high]
            if not seen[image]:
                seen[image] = 1
                orbit.append(image)
            image = b_low[low] | b_high[high]
            if not seen[image]:
                seen[image] = 1
                orbit.append(image)
        representatives.append((mask, len(orbit)))
        if mask.bit_count() < half:
            representatives.append((full ^ max(orbit), len(orbit)))
        mask = seen.find(0, mask + 1)
    representatives.sort()
    return representatives


def space_count(spec: FamilySpec) -> int:
    """How many spaces ``spec`` names: every nonempty one on [n] if exhaustive, else one."""
    return (1 << (1 << spec.n)) - 1 if spec.kind == "exhaustive" else 1


def space_at(spec: FamilySpec, i: int) -> HypothesisSpace:
    """Space i of ``spec``, for i in ``range(space_count(spec))``, built alone.

    This is the one builder of every family; ``enumerate_spaces(spec.n)``
    is ``space_at`` over every index of an exhaustive spec.  Exhaustive
    spaces are subsets of the lexicographically sorted cube, counted in
    binary: bit j of i + 1 selects cube hypothesis j.  Any other i is an
    input error, not an alias of a space in range.
    """
    check_range("i", i, 0, space_count(spec) - 1)
    n = spec.n
    if spec.kind == "k_sparse":
        bits = []
        for weight in range(spec.k + 1):
            for positions in combinations(range(n), weight):
                b = 0
                for p in positions:
                    b |= 1 << p
                bits.append(b)
        return HypothesisSpace(n, bits)
    if spec.kind == "full_cube":
        return HypothesisSpace(n, range(1 << n))
    if spec.kind == "random":
        mask = (1 << n) - 1
        stream = splitmix64_stream(spec.seed)
        chosen: set = set()
        while len(chosen) < spec.size:
            chosen.add(next(stream) & mask)
        return HypothesisSpace(n, chosen)
    mask = i + 1
    return HypothesisSpace(n, (h for j, h in enumerate(_cube(n)) if (mask >> j) & 1))
