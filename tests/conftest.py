import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from simvc import HypothesisSpace, space_from_dict, splitmix64_stream
from simvc.bounds import binary_entropy


#: Seed of the acceptance suite's bound stream; perfbench's random_report draws its specs too.
BOUNDS_STREAM_SEED = 0xC0FFEE


def stream_params(count, seed, max_n, max_size):
    """(n, size, seed) of ``count`` seeded random spaces: n = 2..max_n, size <= max_size.

    Each triple is three consecutive SplitMix64 outputs of ``seed``, with
    n = 2 + r % (max_n - 1) and size = 1 + r % min(2^n, max_size).
    """
    rng = splitmix64_stream(seed)
    for _ in range(count):
        n = 2 + next(rng) % (max_n - 1)
        size = 1 + next(rng) % min(1 << n, max_size)
        yield n, size, next(rng)


def bound_stream_params(count):
    """The bound stream's first ``count`` triples: n = 2..8, size <= 48, as random_report's."""
    return stream_params(count, BOUNDS_STREAM_SEED, 8, 48)


def bit_space(n, rows):
    """The space of bit-string ``rows`` over [n], read as from a space file."""
    return space_from_dict({"domain_size": n, "hypotheses": list(rows)})


def module_env():
    """Environment for a child Python that imports simvc from this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_python(code, timeout):
    """Stdout of ``code`` run in a child Python; a slow or failing child fails the test."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=module_env(), timeout=timeout, check=True,
    )
    return proc.stdout


@pytest.fixture
def five_halves_space():
    """A space on n = 8 with d = 2 and d_sim = 5, so d_sim / d = 5/2; bit j labels element j."""
    return HypothesisSpace(8, [
        0, 2, 34, 64, 65, 66, 67, 70, 81, 82, 86, 89, 90, 93, 94, 95, 98, 114,
        122, 125, 126, 127, 131, 147, 159, 193, 195, 211, 219, 222, 223, 254,
    ])


@pytest.fixture
def ratio_three_space():
    """A space on n = 12 with d = 2 and d_sim = 6 = forest_cap(12, 2), so d_sim / d = 3.

    The lifted witness is the six disjoint pairs (0, 1), (2, 3), ..., (10, 11).
    """
    return HypothesisSpace(12, [
        0, 1, 4, 5, 16, 17, 20, 22, 64, 65, 68, 70, 80, 82, 88, 90, 256, 257,
        260, 265, 273, 281, 321, 353, 536, 576, 592, 600, 720, 1025, 1041, 1088,
        1089, 1092, 1094, 1120, 1121, 1124, 1126, 1216, 1248, 1252, 1254, 1281,
        1289, 1313, 1321, 1441, 1600, 1601, 1604, 1606, 1638, 1728, 2052, 2053,
        2308, 2640, 2648, 2768, 2776, 3652, 3654, 3686,
    ])


def chain_witness(elements, labels, start_bit):
    """Labelling (an int) that is ``start_bit`` at elements[0] and 0 off the chain.

    Along the chain the value is kept across a 1-label and flipped across a
    0-label, so the lift of the result labels the chain's pairs ``labels``.
    """
    val = start_bit
    bits = val << elements[0]
    for label, e in zip(labels, elements[1:]):
        val ^= 1 - label
        bits |= val << e
    return bits


def forest_components(pairs):
    """Vertex sets of the pair graph's trees, or None when it has a cycle.

    (a, b) and (b, a) are one edge.  Each tree is sorted and the trees are
    ordered by smallest vertex; only endpoint vertices appear.
    """
    edges = {(a, b) if a < b else (b, a) for a, b in pairs}
    parent = {}

    def root(x):
        while x in parent:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return None
        parent[ra] = rb
    trees = {}
    for v in {v for e in edges for v in e}:
        trees.setdefault(root(v), []).append(v)
    out = tuple(sorted(tuple(sorted(t)) for t in trees.values()))
    # counting identity for forests: |V| = |E| + number of trees
    assert sum(map(len, out)) == len(edges) + len(out)
    return out


def entropy_sum(n, eps):
    """Both sides of sum_{i<=floor(eps*n)} C(n, i) <= 2^(H(eps)*n), as (lhs, rhs).

    The left side is exact; floor(eps * n) is taken on the rational that the
    float ``eps`` denotes (grid values like 0.3 are decimal fractions), so
    the cutoff never slips by one ulp.
    """
    cutoff = int(Fraction(eps).limit_denominator(10**9) * n)
    return sum(math.comb(n, k) for k in range(cutoff + 1)), 2.0 ** (binary_entropy(eps) * n)


@st.composite
def spaces(draw, min_n=2, max_n=6, max_size=20):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    size = draw(st.integers(min_value=1, max_value=min(1 << n, max_size)))
    bits = draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=size, max_size=size)
    )
    return HypothesisSpace(n, bits)


@st.composite
def subsets_of(draw, domain_size, max_size=None):
    if domain_size == 0:
        return ()
    cap = domain_size if max_size is None else min(max_size, domain_size)
    picked = draw(st.sets(st.integers(min_value=0, max_value=domain_size - 1), max_size=cap))
    return tuple(sorted(picked))
