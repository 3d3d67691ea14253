"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Time budgets are printed for visibility, not asserted.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import le

import pytest

from simvc import (
    FamilySpec,
    enumerate_spaces,
    exhaustive_search,
    full_cube,
    is_shattered,
    k_sparse,
    lift_hypothesis,
    lift_space,
    pair_domain,
    random_space,
    ratio_search,
    run_report,
    solve_optimal_delta,
    space_to_dict,
    splitmix64_stream,
    vc_exact,
    vc_naive,
    verify_theorem,
)
from simvc.bounds import binary_entropy

from conftest import chain_witness, entropy_sum, forest_components

JOBS = 4

#: Seeds of the documented random streams used below; each space draws
#: (n, size, seed) as three consecutive SplitMix64 outputs, with
#: n = 2 + r % 7 (or % 9 for the oracle stream) and size = 1 + r % min(2^n, cap).
BOUNDS_STREAM_SEED = 0xC0FFEE
ORACLE_STREAM_SEED = 0xFACADE


def _line(num: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({time.perf_counter() - started:.1f}s) {detail}", flush=True)


def _random_bound_stream(count: int, seed: int = BOUNDS_STREAM_SEED):
    rng = splitmix64_stream(seed)
    for _ in range(count):
        n = 2 + next(rng) % 7  # 2..8
        size = 1 + next(rng) % min(1 << n, 48)
        yield random_space(n, size, next(rng))


def _random_bound_specs(count: int, seed: int = BOUNDS_STREAM_SEED):
    rng = splitmix64_stream(seed)
    specs = []
    for _ in range(count):
        n = 2 + next(rng) % 7
        size = 1 + next(rng) % min(1 << n, 48)
        specs.append(FamilySpec("random", n, size=size, seed=next(rng)))
    return specs


def _nonforest_rank_sets(n: int, max_size: int = 4):
    domain = pair_domain(n)
    out = []
    for m in range(3, max_size + 1):
        for ranks in combinations(range(len(domain)), m):
            if forest_components([domain[r] for r in ranks]) is None:
                out.append(ranks)
    return out


@dataclass
class SweepSummary:
    spaces: int
    bound_violations: list
    max_ratio: Fraction
    argmax_strings: list
    nonforest_witnesses: int
    nonforest_shattered: int
    elapsed: float


@pytest.fixture(scope="session")
def exhaustive_sweeps():
    """One fused pass per exhaustive domain: bound checks, max ratio,
    witness forestness, and cyclic-set shattering probes."""
    summaries = {}
    for n in (3, 4):
        started = time.perf_counter()
        nonforest = _nonforest_rank_sets(n)
        bound_violations = []
        max_ratio = None
        argmax = None
        bad_witnesses = 0
        cyclic_shattered = 0
        count = 0
        for space in enumerate_spaces(n):
            count += 1
            report = verify_theorem(space)
            if not (report.lower_ok and report.upper_ok):
                bound_violations.append(space_to_dict(space))
            if report.ratio is not None and (max_ratio is None or report.ratio > max_ratio):
                max_ratio = report.ratio
                argmax = space
            if report.witness_sim and forest_components(report.witness_sim) is None:
                bad_witnesses += 1
            lifted = lift_space(space)
            for ranks in nonforest:
                if is_shattered(lifted, ranks):
                    cyclic_shattered += 1
        summaries[n] = SweepSummary(
            spaces=count,
            bound_violations=bound_violations,
            max_ratio=max_ratio,
            argmax_strings=argmax.bit_strings(),
            nonforest_witnesses=bad_witnesses,
            nonforest_shattered=cyclic_shattered,
            elapsed=time.perf_counter() - started,
        )
    return summaries


@pytest.fixture(scope="session")
def ksparse_grid():
    """(k, n) -> bound report over the k-sparse grid, k in 1..3, n in 2k+1..9."""
    rows = {}
    for k in (1, 2, 3):
        for n in range(2 * k + 1, 10):
            rows[(k, n)] = verify_theorem(
                k_sparse(n, k), family_spec=FamilySpec("k_sparse", n, k=k)
            )
    return rows


@pytest.fixture(scope="session")
def cube_rows():
    return {
        n: verify_theorem(full_cube(n), family_spec=FamilySpec("full_cube", n))
        for n in (2, 3, 4, 5)
    }


def test_criterion_1_ksparse_dimensions(ksparse_grid):
    started = time.perf_counter()
    failures = [
        (k, n, row.d, row.d_sim)
        for (k, n), row in ksparse_grid.items()
        if row.d != k or row.d_sim != 2 * k
    ]
    ok = not failures
    _line(
        1,
        ok,
        f"k-sparse grid (15 cells, k<=3, n<=9): base dimension k and lifted dimension 2k"
        + (f"; failures: {failures}" if failures else ""),
        started,
    )
    assert ok, f"k-sparse grid mismatches: {failures}"


def test_criterion_2_full_cube_lift_tightness(cube_rows):
    started = time.perf_counter()
    failures = [(n, row.d_sim) for n, row in cube_rows.items() if row.d_sim != n - 1]
    ok = not failures
    _line(
        2,
        ok,
        "lifted full-cube dimension equals n-1 for n in 2..5"
        + (f"; failures: {failures}" if failures else ""),
        started,
    )
    assert ok, f"cube tightness mismatches: {failures}"


def test_criterion_3_bound_bracket_universal(exhaustive_sweeps):
    started = time.perf_counter()
    violations = []
    for n in (3, 4):
        violations.extend(exhaustive_sweeps[n].bound_violations)
    checked = exhaustive_sweeps[3].spaces + exhaustive_sweeps[4].spaces
    for space in _random_bound_stream(10_000):
        report = verify_theorem(space)
        checked += 1
        if not (report.lower_ok and report.upper_ok):
            violations.append(space_to_dict(space))
    ok = not violations and checked == 255 + 65535 + 10_000
    sweep_times = ", ".join(
        f"n={n} sweep {exhaustive_sweeps[n].elapsed:.1f}s" for n in (3, 4)
    )
    _line(
        3,
        ok,
        f"d-1 <= d_sim <= floor(91d/20) on {checked} spaces "
        f"(exhaustive n=3, n=4 plus 10000 seeded random, n<=8; {sweep_times}); "
        f"violations: {len(violations)}",
        started,
    )
    assert ok, f"bound violations: {violations[:3]}"


def test_criterion_4_max_ratio_is_two(exhaustive_sweeps):
    started = time.perf_counter()
    sweep_ratios = {n: exhaustive_sweeps[n].max_ratio for n in (3, 4)}
    search = ratio_search(enumerate_spaces(3))
    # the orbit search must reproduce the per-space n=4 sweep
    orbit_search = exhaustive_search(4)
    counterexamples = []
    for n, ratio in sweep_ratios.items():
        if ratio > 2:
            counterexamples.append((n, str(ratio), exhaustive_sweeps[n].argmax_strings))
    ok = (
        sweep_ratios[3] == Fraction(2)
        and sweep_ratios[4] == Fraction(2)
        and search.max_ratio == Fraction(2)
        and not search.conjecture_violated
        and orbit_search.max_ratio == sweep_ratios[4]
        and orbit_search.argmax_space.bit_strings() == exhaustive_sweeps[4].argmax_strings
        and orbit_search.spaces_examined == exhaustive_sweeps[4].spaces
    )
    _line(
        4,
        ok,
        f"max lifted/base ratio over exhaustive sweeps: n=3 -> {sweep_ratios[3]}, "
        f"n=4 -> {sweep_ratios[4]} (expected exactly 2)"
        + (f"; PRESERVED COUNTEREXAMPLES: {counterexamples}" if counterexamples else ""),
        started,
    )
    assert not counterexamples, f"ratio above 2 found: {counterexamples}"
    assert ok


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    mismatches = []
    checked = 0
    for n in (1, 2, 3):
        for space in enumerate_spaces(n):
            checked += 1
            if vc_exact(space)[0] != vc_naive(space):
                mismatches.append(space_to_dict(space))
    rng = splitmix64_stream(ORACLE_STREAM_SEED)
    for _ in range(1000):
        n = 2 + next(rng) % 9  # 2..10
        size = 1 + next(rng) % min(1 << n, 24)
        space = random_space(n, size, next(rng))
        checked += 1
        if vc_exact(space)[0] != vc_naive(space):
            mismatches.append(space_to_dict(space))
    ok = not mismatches
    _line(
        5,
        ok,
        f"engine equals brute-force oracle on {checked} spaces "
        f"(all n<=3 plus 1000 seeded random, n<=10); mismatches: {len(mismatches)}",
        started,
    )
    assert ok, f"oracle mismatches: {mismatches[:3]}"


def _shuffled(seq, seed):
    arr = list(seq)
    rng = splitmix64_stream(seed)
    for i in range(len(arr) - 1, 0, -1):
        j = next(rng) % (i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return arr


def test_criterion_6_chain_witness_soundness():
    started = time.perf_counter()
    domain_size = 10
    domain = pair_domain(domain_size)
    failures = 0
    checked = 0
    for length in range(2, 9):
        chains = [list(range(length)), list(reversed(range(length)))]
        chains += [_shuffled(range(domain_size), 100 * length + i)[:length] for i in (1, 2, 3)]
        for chain in chains:
            for g in range(1 << (length - 1)):
                labels = tuple((g >> t) & 1 for t in range(length - 1))
                for start in (0, 1):
                    witness = chain_witness(chain, labels, start)
                    lifted = lift_hypothesis(witness, domain_size)
                    checked += 1
                    for (a, b), want in zip(zip(chain, chain[1:]), labels):
                        rank = domain.index((min(a, b), max(a, b)))
                        if (lifted >> rank) & 1 != want:
                            failures += 1
    ok = failures == 0
    _line(
        6,
        ok,
        f"chain witnesses realize all labellings: lengths 2..8, 5 chains per "
        f"length over a 10-element domain, every labelling, both start bits "
        f"({checked} witnesses); failures: {failures}",
        started,
    )
    assert ok


def test_criterion_7_forest_necessity(exhaustive_sweeps, ksparse_grid, cube_rows):
    started = time.perf_counter()
    bad_witnesses = sum(exhaustive_sweeps[n].nonforest_witnesses for n in (3, 4))
    for row in list(ksparse_grid.values()) + list(cube_rows.values()):
        if row.witness_sim and forest_components(row.witness_sim) is None:
            bad_witnesses += 1
    cyclic_shattered = sum(exhaustive_sweeps[n].nonforest_shattered for n in (3, 4))
    ok = bad_witnesses == 0 and cyclic_shattered == 0
    _line(
        7,
        ok,
        f"every shattered pair-set witness is a forest ({bad_witnesses} failures); "
        f"cyclic rank sets of size <= 4 never shatter any lifted space over "
        f"n <= 4 ({cyclic_shattered} failures)",
        started,
    )
    assert ok


def test_criterion_8_bounds_math():
    started = time.perf_counter()
    grid_failures = [
        (n, i / 100)
        for n in range(1, 21)
        for i in range(1, 50)
        if not le(*entropy_sum(n, i / 100))
    ]
    entropy_ok = binary_entropy(0.11) < 0.5
    epsilon, delta = solve_optimal_delta()
    eps_ok = abs(epsilon - 0.1100) <= 1e-4
    delta_ok = 4.54 < delta < 4.55
    ok = not grid_failures and entropy_ok and eps_ok and delta_ok
    _line(
        8,
        ok,
        f"binomial-tail inequality exact on 20x49 grid ({len(grid_failures)} failures); "
        f"H(0.11)={binary_entropy(0.11):.6f} < 1/2; eps*={epsilon:.6f} "
        f"(0.1100 +/- 1e-4), delta*={delta:.6f} in (4.54, 4.55)",
        started,
    )
    assert ok


def test_criterion_9_reports_identical_across_workers(tmp_path):
    started = time.perf_counter()
    grid_specs = [
        FamilySpec("k_sparse", n, k=k) for k in (1, 2, 3) for n in range(2 * k + 1, 10)
    ]
    workloads = {
        "grid": (grid_specs, "csv"),
        "exhaustive3": ([FamilySpec("exhaustive", 3)], "jsonl"),
        "exhaustive4": ([FamilySpec("exhaustive", 4)], "jsonl"),
        "random_slice": (_random_bound_specs(1000), "jsonl"),
    }
    mismatched = []
    for name, (specs, fmt) in workloads.items():
        serial = tmp_path / f"{name}_serial.{fmt}"
        parallel = tmp_path / f"{name}_parallel.{fmt}"
        run_report(specs, fmt, serial, jobs=1, include_timing=False)
        run_report(specs, fmt, parallel, jobs=JOBS, include_timing=False)
        if serial.read_bytes() != parallel.read_bytes():
            mismatched.append(name)
    ok = not mismatched
    _line(
        9,
        ok,
        f"reports byte-identical for jobs=1 vs jobs={JOBS} on the k-sparse grid, "
        f"both exhaustive sweeps and a 1000-space random slice (timing column "
        f"excluded); mismatches: {mismatched}",
        started,
    )
    assert ok, f"nondeterministic reports: {mismatched}"
