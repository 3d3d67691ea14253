"""Every fast path against an oracle: one row per (fast path, input corpus)."""

from fractions import Fraction
from itertools import chain, permutations, product

import pytest

from simvc import (
    FamilySpec,
    HypothesisSpace,
    enumerate_spaces,
    exhaustive_search,
    full_cube,
    k_sparse,
    lift_hypothesis,
    lift_space,
    lifted_vc,
    pair_domain,
    random_space,
    vc_exact,
    vc_naive,
)
from simvc.families import _orbit_masks, space_at, splitmix64_stream

from conftest import (
    FIVE_HALVES_SPACE, RATIO_THREE_SPACE, bit_space, bound_stream_params, ratio_search,
    stream_params,
)


def seeded(count, seed, max_n, max_size):
    """The ``count`` random spaces of ``conftest.stream_params``."""
    return (random_space(*params) for params in stream_params(count, seed, max_n, max_size))


def n4_sample():
    """400 random spaces on n = 4: sizes 1..16 and seeds drawn from SplitMix64 seed 41."""
    rng = splitmix64_stream(41)
    return (random_space(4, 1 + next(rng) % 16, next(rng)) for _ in range(400))


def all_spaces(*ns):
    return chain.from_iterable(enumerate_spaces(n) for n in ns)


def on_lift(vc):
    """``vc`` of the lifted space, its witness ranks turned back into pairs."""
    def oracle(space):
        if space.domain_size < 2:
            return 0, ()  # the pair domain is empty
        d, ranks = vc(lift_space(space))
        pairs = pair_domain(space.domain_size)
        return d, tuple(pairs[r] for r in ranks)
    return oracle


lifted_naive, lifted_exact = on_lift(vc_naive), on_lift(vc_exact)
EXTREMAL = (FIVE_HALVES_SPACE, RATIO_THREE_SPACE)


def ordered_lift_dimension(space):
    """vc of the lift onto all n*n ordered pairs, diagonal included; (w, x) is column w*n + x."""
    n = space.domain_size
    return vc_exact(HypothesisSpace(n * n, (
        sum(int((h >> w) & 1 == (h >> x) & 1) << (w * n + x) for w in range(n) for x in range(n))
        for h in space.hypotheses
    )))[0]


def naive_max_ratio(n):
    """The largest d_sim / d over every space on [n], both dimensions from ``vc_naive``."""
    return max(
        Fraction(lifted_naive(space)[0], d)
        for space in enumerate_spaces(n)
        if (d := vc_naive(space)[0])
    )


def orbit_masks(n):
    """``_orbit_masks(n)`` with each mask read back from the space ``space_at`` builds for it;
    mask bit i is the i-th bit string in lexicographic order, the order of ``enumerate_spaces``."""
    spec = FamilySpec("exhaustive", n)
    return [
        (sum(1 << int(text, 2) for text in space_at(spec, mask - 1).bit_strings()), size)
        for mask, size in _orbit_masks(n)
    ]


def brute_force_orbits(n):
    """(smallest mask, size) of every orbit of nonempty spaces on [n], as ``orbit_masks``."""
    return [(min(orbit), len(orbit)) for orbit in brute_force_orbit_sets(n)]


def brute_force_orbit_sets(n):
    """Every orbit of nonempty spaces on [n] as a set of masks, by smallest mask.

    Each mask is imaged by all n! * 2^n maps, every permutation of the domain
    with every XOR mask, not by a generating set.
    """
    strings = ["".join(bits) for bits in product("01", repeat=n)]
    # position j of an image holds position perm[j] of the string, flipped where ``flip`` is 1
    tables = [
        [int("".join("01"[text[p] != flip[p]] for p in perm), 2) for text in strings]
        for perm in permutations(range(n))
        for flip in strings
    ]
    orbits, seen = [], set()
    for mask in range(1, 1 << len(strings)):
        if mask not in seen:
            members = [i for i in range(len(strings)) if mask >> i & 1]
            orbit = frozenset(sum(1 << table[i] for i in members) for table in tables)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def reference_lift(bits_n):
    """The lift's definition, pair by pair: the bit at rank r of pair (i, j), i < j in
    lexicographic order, is 1 iff bits i and j agree."""
    bits, n = bits_n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(((bits >> i) & 1 == (bits >> j) & 1) << r for r, (i, j) in enumerate(pairs))


def partition_lifted_vc(space):
    """d_sim with its witness, from every vertex partition of [n]; (0, ()) when n < 2.

    The partitions are the restricted growth strings: vertex v joins one of
    the blocks opened before it or opens a new one.  Joining block b adds the
    pair (centre of b, v), the centre being b's smallest vertex, so each
    partition builds its min-centred star forest.  A forest is shattered when
    the rows' patterns of h(a) = h(b) over its pairs number 2^edges; whether
    one is depends only on its partition, and within a partition the star
    forest is the lexicographically smallest spanning forest.  So the witness
    is the lexicographically smallest among the largest shattered star forests.
    """
    n, rows = space.domain_size, space.hypotheses
    best = (0, ())  # (-edges, sorted pairs) of the best forest so far

    def place(v, centres, forest, patterns):
        nonlocal best
        if v == n:
            if len(set(patterns)) == 1 << len(forest):
                best = min(best, (-len(forest), tuple(sorted(forest))))
            return
        for c in centres:
            place(v + 1, centres, forest + ((c, v),),
                  [p << 1 | (h >> c ^ h >> v) & 1 for p, h in zip(patterns, rows)])
        place(v + 1, centres + (v,), forest, patterns)

    if n >= 2:
        place(1, (0,), (), [0] * len(rows))
    return -best[0], best[1]


def closure_vc(space):
    """vc with its witness, from the shattered sets listed level by level.

    Shattered sets are closed under subsets, so level k + 1 is every shattered
    extension of a level-k set by a larger element; a set is shattered when the
    rows masked to it take 2^|set| values.  Each level is in lexicographic
    order, so the witness is the first set of the last nonempty level.
    """
    n, rows = space.domain_size, space.hypotheses
    level = [((), 0)]  # (set, its mask)
    while True:
        following = [
            (subset + (e,), mask | 1 << e)
            for subset, mask in level for e in range(subset[-1] + 1 if subset else 0, n)
            if len({h & (mask | 1 << e) for h in rows}) == 2 << len(subset)
        ]
        if not following:
            return len(level[0][0]), level[0][0]
        level = following


# Oracles that share no code with engine._search, and how far each reaches:
# vc_naive tries every subset, so it reaches n <= 20 on a base space
# (ORACLE_DOMAIN_CAP) and n <= 6 on a lift (C(6, 2) = 15 pair columns);
# closure_vc lists the shattered sets level by level, here n <= 24;
# partition_lifted_vc lists the Bell(n) vertex partitions, here n <= 9
# (21 147 of them); brute_force_orbits images every mask by all n! * 2^n
# maps, n <= 4; and reference_lift evaluates the definition at any n, here
# n <= 8.  Two more oracles -- vc_exact on the lifted space and the ordered
# n*n lift -- run the same search, so they check what the fast path adds
# around it (pair ranks, star-forest blocks) and cannot catch a fault inside
# it.  The searches' reference, conftest.ratio_search over every space, is a
# serial loop that keeps the first maximum, so it checks the orbits, the
# ordered map and the argmax, but measures each space with the same
# verify_theorem.

#: "fast path-oracle-corpus" -> (inputs checked, a callable giving them, fast path, oracle)
ORACLES = {
    "vc_exact-naive-n4-41": (400, n4_sample, vc_exact, vc_naive),
    "vc_exact-naive-stream-77": (200, lambda: seeded(200, 77, 8, 40), vc_exact, vc_naive),
    # the row bound alone stops the search at d = log2 |H|
    "vc_exact-naive-cubes-4-8": (5, lambda: map(full_cube, range(4, 9)), vc_exact, vc_naive),
    # the five-halves space without its first row has a witness pattern on one row,
    # which a row floor set one power of two too high misses
    "vc_exact-naive-extremal": (
        3, lambda: (*EXTREMAL, HypothesisSpace(8, FIVE_HALVES_SPACE.hypotheses[1:])),
        vc_exact, vc_naive,
    ),
    # above vc_naive's cap, against an oracle that lists shattered sets rather than searching
    "vc_exact-closure-n21-24": (
        4, lambda: (random_space(n, s, 7) for n, s in ((21, 32), (22, 48), (23, 64), (24, 64))),
        vc_exact, closure_vc,
    ),
    "lifted_vc-naive-all-n1-3": (273, lambda: all_spaces(1, 2, 3), lifted_vc, lifted_naive),
    "lifted_vc-naive-stream-78": (200, lambda: seeded(200, 78, 5, 40), lifted_vc, lifted_naive),
    "lifted_vc-naive-cubes-4-5": (2, lambda: map(full_cube, (4, 5)), lifted_vc, lifted_naive),
    # the lifted search beyond n = 6, against an oracle that does not run it
    "lifted_vc-partition-ksparse-grid": (
        15, lambda: (k_sparse(n, k) for k in (1, 2, 3) for n in range(2 * k + 1, 10)),
        lifted_vc, partition_lifted_vc,
    ),
    "lifted_vc-partition-five-halves": (
        1, lambda: [FIVE_HALVES_SPACE], lifted_vc, partition_lifted_vc,
    ),
    "lifted_vc-partition-n7-9-seeds-1-2": (
        6, lambda: (random_space(n, 64, seed) for n in (7, 8, 9) for seed in (1, 2)),
        lifted_vc, partition_lifted_vc,
    ),
    "lifted_vc-exact-stream-0x5117": (
        200, lambda: seeded(200, 0x5117, 7, 32), lifted_vc, lifted_exact,
    ),
    # random_report's spaces, where the search's split-time bound cuts most often
    "lifted_vc-exact-bound-stream": (
        1000, lambda: (random_space(*p) for p in bound_stream_params(1000)),
        lifted_vc, lifted_exact,
    ),
    "lifted_vc-exact-extremal": (2, lambda: EXTREMAL, lifted_vc, lifted_exact),
    # dropping reversed and diagonal pairs from the pair domain never changes d_sim
    "lifted_vc-ordered-all-n2-3": (
        270, lambda: all_spaces(2, 3), lambda s: lifted_vc(s)[0], ordered_lift_dimension,
    ),
    "lifted_vc-ordered-n4-seeds-0-7": (
        8, lambda: (random_space(4, 1 + seed % 12, seed) for seed in range(8)),
        lambda s: lifted_vc(s)[0], ordered_lift_dimension,
    ),
    "lifted_vc-ordered-n1": (
        1, lambda: [bit_space(1, ["0", "1"])], lambda s: lifted_vc(s)[0], ordered_lift_dimension,
    ),
    # one measurement per orbit, the same result as measuring every space
    "exhaustive_search-ratio_search-n1-3-jobs-1-2": (
        6, lambda: product((1, 2, 3), (1, 2)),
        lambda n_jobs: exhaustive_search(n_jobs[0], jobs=n_jobs[1]),
        lambda n_jobs: ratio_search(enumerate_spaces(n_jobs[0])),
    ),
    "ratio_search-naive-n3": (
        1, lambda: [3], lambda n: ratio_search(enumerate_spaces(n)).max_ratio, naive_max_ratio,
    ),
    "exhaustive_orbits-brute-force-n1-3": (3, lambda: (1, 2, 3), orbit_masks, brute_force_orbits),
    "exhaustive_orbits-brute-force-n4": (1, lambda: [4], orbit_masks, brute_force_orbits),
    "lift_hypothesis-reference-n1-8": (
        510, lambda: ((bits, n) for n in range(1, 9) for bits in range(1 << n)),
        lambda bits_n: lift_hypothesis(*bits_n), reference_lift,
    ),
}


@pytest.mark.parametrize("count, inputs, fast, oracle", list(ORACLES.values()), ids=list(ORACLES))
def test_fast_path_matches_oracle(count, inputs, fast, oracle):
    checked = 0
    for x in inputs():
        assert fast(x) == oracle(x), x
        checked += 1
    # an empty or truncated corpus would otherwise pass with nothing checked
    assert checked == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exhaustive_orbits_complement_duality(n):
    """The oracle's orbits, not ``_orbit_masks``: complementing every space maps each
    orbit onto one of the same size, and reverses mask order, so the orbits heavier than
    half the cube are the complements of the lighter ones, and of the empty space."""
    full, half = (1 << (1 << n)) - 1, 1 << (n - 1)
    orbits = brute_force_orbit_sets(n)
    # the cube's complement is the empty space, which no orbit holds
    assert {frozenset(full ^ m for m in orbit) for orbit in orbits} == set(orbits) ^ {
        frozenset([0]), frozenset([full]),
    }
    # every mask of an orbit holds as many rows as its smallest
    weight = [min(orbit).bit_count() for orbit in orbits]
    assert all(m.bit_count() == w for orbit, w in zip(orbits, weight) for m in orbit)
    heavier = [(min(orbit), len(orbit)) for orbit, w in zip(orbits, weight) if w > half]
    lighter = [(full ^ max(orbit), len(orbit)) for orbit, w in zip(orbits, weight) if w < half]
    assert heavier == sorted([*lighter, (full, 1)])
