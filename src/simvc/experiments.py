"""Per-space bound verification, ratio search, and report emission.

``verify_theorem`` measures one space: its VC dimension (``vc_exact``), the
VC dimension of its lifted space (``lifted_vc``, a search over vertex
partitions), the ratio between them, and whether both sides of the
``theorem_bounds`` bracket d - 1 <= d_sim <= floor(4.55 d) hold.  It reports
rather than asserts, so a hypothetical counterexample is captured instead of
crashed on.  The exact ``forest_cap(n, d)`` is the one bound it asserts: a
d_sim above it is a fault of the search, not a finding.

``verify_theorem`` is the only per-space job.  ``ratio_search`` maps it over
a space stream and keeps the first maximum of the reports' d_sim / d,
flagging a maximum above 2 (one exists: a space on n = 12 reaches 3); the
stream's own length is the length of the search.  ``exhaustive_search``
gives the result ``ratio_search`` would give over ``enumerate_spaces(n)``,
verifying one space per symmetry orbit (``exhaustive_orbits``) and counting
every space.
``run_report`` writes the reports themselves: each job verifies one space
and renders its CSV row or JSONL line, so a worker sends back a finished
line and the main process only writes the lines in stream order.  All three
share one ordered map: the built-in ``map`` at one job, otherwise
``Pool.imap`` on a fork pool of at most one worker per CPU, which reads a
stream only as far ahead as its pipe to the workers holds.  Results come in
stream order, so the outcome does not depend on the worker count.
"""

from __future__ import annotations

import functools
import json
import os
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .bounds import forest_cap, theorem_bounds, urner_bound
from .engine import vc_exact
from .families import FamilySpec, exhaustive_orbits, spaces_for
from .similarity import lifted_vc
from .space import HypothesisSpace, check_int, space_to_dict

#: Fixed CSV column order of report files.
CSV_COLUMNS = (
    "family",
    "n",
    "k",
    "size",
    "seed",
    "d",
    "d_sim",
    "ratio",
    "lower_ok",
    "upper_ok",
    "urner_value",
    "wall_time_ms",
)

_CHUNK = 128


class BoundReport(NamedTuple):
    """Everything measured about one space, bound checks included."""

    family_spec: Union[FamilySpec, str]
    n: int
    space_size: int
    d: int
    d_sim: int
    ratio: Optional[Fraction]
    lower_ok: bool
    upper_ok: bool
    witness_base: "tuple[int, ...]"
    witness_sim: "tuple[tuple[int, int], ...]"
    urner_value: Optional[float]
    wall_time_ms: int

    def to_dict(self, *, include_timing: bool = True) -> dict:
        doc = {
            "family": self.family_spec.to_dict()
            if isinstance(self.family_spec, FamilySpec)
            else self.family_spec,
            "n": self.n,
            "space_size": self.space_size,
            "d": self.d,
            "d_sim": self.d_sim,
            "ratio": str(self.ratio) if self.ratio is not None else None,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "witness_base": list(self.witness_base),
            "witness_sim": [list(p) for p in self.witness_sim],
            "urner_value": self.urner_value,
        }
        if include_timing:
            doc["wall_time_ms"] = self.wall_time_ms
        return doc

    def csv_row(self, *, include_timing: bool = True) -> "list[str]":
        spec = self.family_spec
        if isinstance(spec, FamilySpec):
            family, k, size, seed = spec.kind, spec.k, spec.size, spec.seed
        else:
            family, k, size, seed = str(spec), None, None, None
        row = [
            family,
            str(self.n),
            "" if k is None else str(k),
            "" if size is None else str(size),
            "" if seed is None else str(seed),
            str(self.d),
            str(self.d_sim),
            "undefined" if self.ratio is None else str(self.ratio),
            "true" if self.lower_ok else "false",
            "true" if self.upper_ok else "false",
            "" if self.urner_value is None else repr(self.urner_value),
        ]
        if include_timing:
            row.append(str(self.wall_time_ms))
        return row


def verify_theorem(
    space: HypothesisSpace, family_spec: Union[FamilySpec, str] = "file"
) -> BoundReport:
    """Measure one space against the d - 1 <= d_sim <= floor(4.55 d) bracket.

    Raises ``AssertionError`` when d_sim exceeds ``forest_cap(n, d)``.
    """
    start = time.perf_counter()
    d, witness_base = vc_exact(space)
    d_sim, witness_sim = lifted_vc(space)
    cap = forest_cap(space.domain_size, d)
    if d_sim > cap:
        raise AssertionError(f"d_sim = {d_sim} exceeds forest_cap = {cap} at d = {d}")
    ratio = Fraction(d_sim, d) if d > 0 else None
    lower, upper = theorem_bounds(d)
    report = BoundReport(
        family_spec=family_spec,
        n=space.domain_size,
        space_size=len(space),
        d=d,
        d_sim=d_sim,
        ratio=ratio,
        lower_ok=lower <= d_sim,
        upper_ok=d_sim <= upper,
        witness_base=witness_base,
        witness_sim=witness_sim,
        urner_value=urner_bound(d) if d >= 1 else None,
        wall_time_ms=int((time.perf_counter() - start) * 1000),
    )
    return report


class RatioSearchResult(NamedTuple):
    """Outcome of a ratio search over a space stream."""

    max_ratio: Optional[Fraction]
    argmax_space: Optional[HypothesisSpace]
    spaces_examined: int
    conjecture_violated: bool

    def to_dict(self) -> dict:
        return {
            "max_ratio": str(self.max_ratio) if self.max_ratio is not None else None,
            "argmax_space": space_to_dict(self.argmax_space)
            if self.argmax_space is not None
            else None,
            "spaces_examined": self.spaces_examined,
            "conjecture_violated": self.conjecture_violated,
        }


def _ordered_map(fn: Callable, items: Iterable, jobs: int) -> Iterator:
    """``fn(item)`` for each item, in input order.

    One job runs in-process; more run in a fork pool of at most one worker
    per CPU.  ``jobs`` is checked before any worker starts.  The pool's
    feeder thread sends chunks of ``_CHUNK`` items and blocks while the pipe
    to the workers is full, so it reads ahead by what that pipe holds.
    Each result is pickled back to this process, which shares the CPUs with
    the workers, so each job returns only what its caller keeps: a ratio
    and its space, or a finished report line that ``run_report`` writes in
    stream order.
    """
    check_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return map(fn, items)

    def pooled() -> Iterator:
        # imported here, the only place it runs, so a one-job run never loads it
        import multiprocessing

        workers = min(jobs, os.cpu_count() or 1)
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            yield from pool.imap(fn, items, chunksize=_CHUNK)

    return pooled()


def _ratio_job(
    weighted: "tuple[HypothesisSpace, int]",
) -> "tuple[Optional[Fraction], HypothesisSpace, int]":
    space, count = weighted
    return verify_theorem(space).ratio, space, count


def _max_ratio(
    weighted: Iterable["tuple[HypothesisSpace, int]"], jobs: int
) -> RatioSearchResult:
    """First maximum of the reports' d_sim / d over ``(space, count)`` pairs.

    Each space is verified once; ``count`` is how many spaces it stands for.
    """
    best: Optional[Fraction] = None
    argmax: Optional[HypothesisSpace] = None
    examined = 0
    for ratio, space, count in _ordered_map(_ratio_job, weighted, jobs):
        examined += count
        if ratio is not None and (best is None or ratio > best):
            best = ratio
            argmax = space
    return RatioSearchResult(
        max_ratio=best,
        argmax_space=argmax,
        spaces_examined=examined,
        conjecture_violated=best is not None and best > 2,
    )


def ratio_search(spaces: Iterable[HypothesisSpace], jobs: int = 1) -> RatioSearchResult:
    """Maximum d_sim / d over the spaces of the stream with d >= 1.

    The argmax is the first space in stream order attaining the maximum;
    spaces with d = 0 force d_sim = 0 and are excluded from the ratio.
    """
    return _max_ratio(((space, 1) for space in spaces), jobs)


def exhaustive_search(n: int, jobs: int = 1) -> RatioSearchResult:
    """``ratio_search`` over every nonempty space on [n], one measurement per orbit.

    Representatives are the smallest members of their orbits and come in
    ``enumerate_spaces`` order, so the argmax is the same first space the
    full stream would give; ``spaces_examined`` counts every space.
    """
    result = _max_ratio(exhaustive_orbits(n), jobs)
    if result.spaces_examined != (1 << (1 << n)) - 1:
        raise AssertionError(f"orbit sizes on n = {n} sum to {result.spaces_examined}")
    return result


def _csv_line(fields: Iterable[str]) -> str:
    # no field needs quoting: kinds, integers, a/b ratios, true/false and float reprs
    return ",".join(fields) + "\n"


def _report_line(
    output_format: str,
    include_timing: bool,
    pair: "tuple[HypothesisSpace, FamilySpec]",
) -> str:
    """The finished report line of one space: a CSV row or a compact JSON document."""
    space, spec = pair
    report = verify_theorem(space, family_spec=spec)
    if output_format == "csv":
        return _csv_line(report.csv_row(include_timing=include_timing))
    doc = report.to_dict(include_timing=include_timing)
    return json.dumps(doc, separators=(",", ":")) + "\n"


def run_report(
    specs: Sequence[FamilySpec],
    output_format: str,
    output_path,
    *,
    jobs: int = 1,
    include_timing: bool = True,
) -> int:
    """Write one report row per space described by ``specs``; returns the row count.

    The jobs return finished lines, rendered where the space was verified;
    this process writes the CSV header and then each line in stream order.
    ``include_timing=False`` drops the wall-time column, leaving output that
    is byte-identical across runs and worker counts.
    """
    if output_format not in ("csv", "jsonl"):
        raise ValueError(f"unknown report format {output_format!r}")
    pairs = ((space, spec) for spec in specs for space in spaces_for(spec))
    lines = _ordered_map(
        functools.partial(_report_line, output_format, include_timing), pairs, jobs
    )
    with open(output_path, "w", encoding="utf-8", newline="") as out:
        if output_format == "csv":
            out.write(_csv_line(CSV_COLUMNS if include_timing else CSV_COLUMNS[:-1]))
        count = 0
        for line in lines:
            out.write(line)
            count += 1
        return count
