"""Generators for concrete hypothesis-space families and seeded space streams.

Randomness is pinned to SplitMix64 rather than a standard library generator
so that seeds mean the same thing in any reimplementation.  A random space
of a given size draws 64-bit values, keeps the low n bits (exactly uniform,
since 2^n divides 2^64) and collects distinct labellings until the requested
size is reached.  Streams derive the i-th space's seed from the i-th output
of SplitMix64 run on the base seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Optional

from .errors import SimvcError
from .space import DOMAIN_SIZE_CAP, HypothesisSpace, _canonical_space

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


FAMILY_KINDS = ("k_sparse", "full_cube", "random", "exhaustive")

_KIND_ALIASES = {
    "k_sparse": "k_sparse",
    "ksparse": "k_sparse",
    "full_cube": "full_cube",
    "cube": "full_cube",
    "random": "random",
    "exhaustive": "exhaustive",
}


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """Description of one generated family instance, kept for provenance."""

    kind: str
    n: int
    k: Optional[int] = None
    size: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # the generators' own range checks, so a bad spec fails before any space is built
        if self.kind not in FAMILY_KINDS:
            raise SimvcError(f"unknown family kind {self.kind!r}")
        if self.kind == "exhaustive":
            _check_enumeration_n(self.n)
        else:
            _check_n(self.n)
        if self.kind == "k_sparse":
            if self.k is None:
                raise SimvcError("k_sparse requires k")
            _check_k(self.n, self.k)
        if self.kind == "random":
            if self.size is None or self.seed is None:
                raise SimvcError("random requires size and seed")
            _check_size(self.n, self.size)

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
            raise SimvcError(f"family spec must be an object, got {doc!r}")
        raw_kind = doc.get("family", doc.get("kind"))
        kind = _KIND_ALIASES.get(raw_kind) if isinstance(raw_kind, str) else None
        if kind is None:
            raise SimvcError(f"unknown family {raw_kind!r}")
        if "n" not in doc:
            raise SimvcError("family spec requires n")
        params = {
            key: doc[key]
            for key in ("n", "k", "size", "seed")
            if key == "n" or doc.get(key) is not None
        }
        for key, value in params.items():
            # exact type: bool is an int subclass, and floats and strings are not coerced
            if type(value) is not int:
                raise SimvcError(
                    f"malformed family spec {doc!r}: {key} must be an integer, got {value!r}"
                )
        return cls(kind, **params)


def _check_n(n: int) -> None:
    if not 1 <= n <= DOMAIN_SIZE_CAP:
        raise SimvcError(f"n must be in 1..{DOMAIN_SIZE_CAP}, got {n}")


def _check_k(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise SimvcError(f"k must be in 0..{n}, got {k}")


def _check_size(n: int, size: int) -> None:
    if not 1 <= size <= (1 << n):
        raise SimvcError(f"size must be in 1..2^{n}, got {size}")


def k_sparse(n: int, k: int) -> HypothesisSpace:
    """All labellings of [n] with at most k ones; |H| = sum_{w<=k} C(n, w)."""
    _check_n(n)
    _check_k(n, k)
    bits = []
    for weight in range(k + 1):
        for positions in combinations(range(n), weight):
            b = 0
            for p in positions:
                b |= 1 << p
            bits.append(b)
    return _canonical_space(n, bits)


@lru_cache(maxsize=8)
def full_cube(n: int) -> HypothesisSpace:
    """All 2^n labellings of [n]."""
    _check_n(n)
    return _canonical_space(n, range(1 << n))


def random_space(n: int, size: int, seed: int) -> HypothesisSpace:
    """Uniformly sampled space of ``size`` distinct hypotheses, reproducible from seed."""
    _check_n(n)
    _check_size(n, size)
    mask = (1 << n) - 1
    stream = splitmix64_stream(seed)
    chosen: set = set()
    while len(chosen) < size:
        chosen.add(next(stream) & mask)
    return _canonical_space(n, chosen)


def random_space_stream(n: int, size: int, samples: int, seed: int) -> Iterator[HypothesisSpace]:
    """``samples`` random spaces; the i-th uses the i-th SplitMix64 output of ``seed``.

    The arguments are checked at the call.
    """
    _check_n(n)
    _check_size(n, size)
    if samples < 1:
        raise SimvcError(f"samples must be at least 1, got {samples}")
    return _random_spaces(n, size, samples, seed)


def _random_spaces(n: int, size: int, samples: int, seed: int) -> Iterator[HypothesisSpace]:
    seeds = splitmix64_stream(seed)
    for _ in range(samples):
        yield random_space(n, size, next(seeds))


def _check_enumeration_n(n: int) -> None:
    if n < 1:
        raise SimvcError(f"n must be at least 1, got {n}")
    if n > ENUMERATION_CAP:
        raise SimvcError(
            f"exhaustive enumeration caps at n = {ENUMERATION_CAP}, got {n}"
        )


def enumerate_spaces(n: int) -> Iterator[HypothesisSpace]:
    """Every nonempty space over [n] exactly once, in a deterministic order.

    Spaces are subsets of the lexicographically sorted cube, counted in
    binary: mask bit i selects cube hypothesis i.
    """
    _check_enumeration_n(n)
    cube = full_cube(n).hypotheses
    count = len(cube)
    for mask in range(1, 1 << count):
        picked = tuple(cube[i] for i in range(count) if (mask >> i) & 1)
        yield HypothesisSpace(n, picked)


def exhaustive_orbits(n: int) -> Iterator["tuple[HypothesisSpace, int]"]:
    """One ``(space, orbit_size)`` per orbit of the domain symmetries on spaces over [n].

    The symmetries are the n! * 2^n maps that permute the domain and XOR
    every hypothesis with a fixed mask; d and d_sim are invariant under
    them.  Each space is the first member of its orbit in
    ``enumerate_spaces(n)`` order, representatives come out in that order,
    and the orbit sizes sum to 2^(2^n) - 1.  ``n`` is checked at the call.
    """
    _check_enumeration_n(n)
    return _orbit_representatives(n)


def _orbit_representatives(n: int) -> Iterator["tuple[HypothesisSpace, int]"]:
    cube = full_cube(n).hypotheses
    count = len(cube)
    # each symmetry as a permutation of cube indices
    group = []
    for perm in permutations(range(n)):
        for flip in range(1 << n):
            moved = []
            for h in cube:
                bits = flip
                for j in range(n):
                    bits ^= ((h >> j) & 1) << perm[j]
                moved.append(cube.index(bits))
            group.append(tuple(moved))
    seen = bytearray(1 << count)
    for mask in range(1, 1 << count):
        if seen[mask]:
            continue
        members = [i for i in range(count) if (mask >> i) & 1]
        orbit_size = 0
        for g in group:
            image = 0
            for i in members:
                image |= 1 << g[i]
            if not seen[image]:
                seen[image] = 1
                orbit_size += 1
        yield HypothesisSpace(n, tuple(cube[i] for i in members)), orbit_size


def spaces_for(spec: FamilySpec) -> Iterator[HypothesisSpace]:
    """Expand a family spec into its space(s)."""
    if spec.kind == "k_sparse":
        yield k_sparse(spec.n, spec.k)
    elif spec.kind == "full_cube":
        yield full_cube(spec.n)
    elif spec.kind == "random":
        yield random_space(spec.n, spec.size, spec.seed)
    else:
        yield from enumerate_spaces(spec.n)
