"""Workload inputs and output checks for the simvc benchmark.

Every workload is a fixed list of ``vc`` invocations.  Inputs are built here
from the workload seed, without importing simvc, so the program under test
receives only generated argv lists and spec files.  The checks compare each
output against the pinned reference in ``reference.json`` and return
``(attempted, failed)`` counts: one count per grid cell or report row where
the output lists spaces, one per invocation otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("ksparse_grid", "exhaustive_n4", "random_report")

#: Seed of the acceptance suite's bound stream; at this seed the report keeps stream order.
DEFAULT_SEED = 0xC0FFEE

#: (k, n) cells of the acceptance k-sparse grid.
GRID = tuple((k, n) for k in (1, 2, 3) for n in range(2 * k + 1, 10))

EXHAUSTIVE_N = 4
EXHAUSTIVE_SPACES = (1 << (1 << EXHAUSTIVE_N)) - 1

#: Traced layers, named after simvc modules; engine.lifted_vc is derived, not a span.
LAYERS = (
    "families.build",
    "experiments.verify",
    "engine.base_vc",
    "similarity.lift",
    "engine.lifted_vc",
    "experiments.serialize",
)

REPORT_SPECS = 1000
REPORT_JOBS = 2

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """The SplitMix64 sequence simvc documents, reimplemented for input generation."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def report_order(seed: int) -> "list[int]":
    """Stream indices of the specs in the order ``seed`` lists them.

    Identity at DEFAULT_SEED; any other seed shuffles (Fisher-Yates on the
    SplitMix64 stream of ``seed``).
    """
    order = list(range(REPORT_SPECS))
    if seed != DEFAULT_SEED:
        rng = splitmix64(seed)
        for i in range(len(order) - 1, 0, -1):
            j = next(rng) % (i + 1)
            order[i], order[j] = order[j], order[i]
    return order


def report_specs(seed: int) -> "list[dict]":
    """The first REPORT_SPECS specs of the acceptance bound stream, in ``report_order(seed)``.

    Each spec draws (n, size, space seed) as three consecutive SplitMix64
    outputs of DEFAULT_SEED, with n = 2 + r % 7 and size = 1 + r % min(2^n, 48),
    as the acceptance suite does.  The seed so changes how the uneven spaces
    fall into the pool's chunks but not the total work: re-drawing the spaces
    per seed instead moved the wall time by 7.5 % (coefficient of variation
    over six seeds), against 3.3 % for reordering.
    """
    rng = splitmix64(DEFAULT_SEED)
    stream = []
    for _ in range(REPORT_SPECS):
        n = 2 + next(rng) % 7
        size = 1 + next(rng) % min(1 << n, 48)
        stream.append({"family": "random", "n": n, "size": size, "seed": next(rng)})
    return [stream[i] for i in report_order(seed)]


def report_paths(work: Path, seed: int) -> "tuple[Path, Path]":
    """The spec file a random_report run reads and the CSV it writes."""
    return work / f"report_{seed}.spec.json", work / f"report_{seed}.csv"


def invocations(workload: str, seed: int, work: Path) -> "list[list[str]]":
    """argv lists for ``simvc.cli.main``.

    random_report also writes its spec file and removes the CSV of any
    earlier run, so that a run that writes no CSV cannot pass on a stale one.
    """
    if workload == "ksparse_grid":
        return [["verify", "--family", "ksparse", "--n", str(n), "--k", str(k)] for k, n in GRID]
    if workload == "exhaustive_n4":
        return [["search", "--mode", "exhaustive", "--n", str(EXHAUSTIVE_N)]]
    if workload == "random_report":
        spec, out = report_paths(work, seed)
        spec.write_text(json.dumps(report_specs(seed)), encoding="utf-8")
        out.unlink(missing_ok=True)
        return [
            ["report", "--spec", str(spec), "--format", "csv", "--out", str(out),
             "--no-timing", "--jobs", str(REPORT_JOBS)]
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- checks -----------------------------------------------------------------


def _ok(result: dict) -> bool:
    return result.get("error") is None and result.get("rc") == 0


def check_ksparse(results: "list[dict]", reference: dict) -> "tuple[int, int]":
    """d = k, d_sim = 2k, both bound flags, and the pinned witnesses, per cell."""
    failed = 0
    for (k, n), result in zip(GRID, results + [{}] * (len(GRID) - len(results))):
        try:
            doc = json.loads(result["stdout"]) if _ok(result) else None
        except (KeyError, ValueError):
            doc = None
        pinned = reference["cells"][f"{k},{n}"]
        good = (
            doc is not None
            and doc.get("family") == {"family": "k_sparse", "n": n, "k": k}
            and doc.get("d") == k
            and doc.get("d_sim") == 2 * k
            and doc.get("lower_ok") is True
            and doc.get("upper_ok") is True
            and doc.get("witness_base") == pinned["witness_base"]
            and doc.get("witness_sim") == pinned["witness_sim"]
        )
        failed += not good
    return len(GRID), failed


def check_exhaustive(results: "list[dict]", reference: dict, traced: bool = False) -> "tuple[int, int]":
    """The one search result: ratio 2, 65 535 spaces, pinned argmax, no violation.

    The traced run takes the maximum over verify_theorem's ratios in the
    benchmark's own loop, so only the ratio and the argmax it found come from
    the program; the space count and the violation flag are not checked there.
    """
    result = results[0] if results else {}
    try:
        doc = json.loads(result["stdout"]) if _ok(result) else None
    except (KeyError, ValueError):
        doc = None
    good = (
        doc is not None
        and doc.get("max_ratio") == reference["max_ratio"]
        and doc.get("argmax_space") == reference["argmax_space"]
        and (
            traced
            or doc.get("spaces_examined") == reference["spaces_examined"]
            and doc.get("conjecture_violated") is False
        )
    )
    return 1, int(not good)


def check_report(data: "bytes | None", seed: int, reference: dict) -> "tuple[int, int]":
    """(attempted, failed) over the rows of one report.

    Each row, put back in stream order, must be byte-identical to its pinned
    row; the pinned rows are those a jobs 1 run wrote at DEFAULT_SEED.  A
    missing file, a wrong header or a missing final newline fails every row;
    rows beyond the spec list count as attempted and failed.
    """
    pinned, order = reference["rows"], report_order(seed)
    attempted = len(pinned)
    if data is None:
        return attempted, attempted
    lines = data.decode("utf-8", "replace").split("\n")
    if lines[0] != reference["header"] or lines[-1]:
        return attempted, attempted
    lines = lines[1:-1]
    failed = sum(
        i >= len(lines) or lines[i] != pinned[index] for i, index in enumerate(order)
    )
    extra = max(0, len(lines) - attempted)
    return attempted + extra, failed + extra
