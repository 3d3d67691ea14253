"""Per-space bound verification, ratio search, and report emission.

``verify_theorem`` measures one space: its VC dimension (``vc_exact``), the
VC dimension of its lifted space (``lifted_vc``, a search over vertex
partitions), the ratio between them, and whether both sides of the
``theorem_bounds`` bracket d - 1 <= d_sim <= floor(4.55 d) hold.  It reports
rather than asserts, so a hypothetical counterexample is captured instead of
crashed on.  The exact ``forest_cap(n, d)`` is the one bound it asserts: a
d_sim above it is a fault of the search, not a finding.

``verify_theorem`` is the only per-space job.  The searches keep the first
maximum of its reports' d_sim / d over a stream of spaces, flagging a
maximum above 2 (one exists: a space on n = 12 reaches 3).
``exhaustive_search`` gives that maximum over ``enumerate_spaces(n)``,
verifying one space per symmetry orbit and counting every space;
``random_search`` gives it over a seeded stream of random spaces.
``run_report`` writes the reports themselves, rendering each as its CSV
row or JSONL line.  Every job names its space as ``(spec, i)``, space i of
a ``FamilySpec``, and builds it with ``space_at``, so a search sends back
(d_sim, d) and the count of spaces its row stands for, a report a finished
line, and the main process only folds or writes them in stream order.  All
three share one ordered map: the built-in ``map`` at one job, otherwise at
most one forked worker per CPU, each of which replays the stream of rows
and runs the job on every J-th row.  Nothing is sent to a worker, results
come back in stream order, and the outcome does not depend on the worker
count.
"""

from __future__ import annotations

import functools
import json
import marshal
import os
import time
from fractions import Fraction
from itertools import cycle, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .bounds import forest_cap, theorem_bounds, urner_bound
from .engine import vc_exact
from .families import FamilySpec, _orbit_masks, random_space_seeds, space_at, space_count
from .similarity import lifted_vc
from .space import HypothesisSpace, check_range, space_to_dict

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

    ``jobs`` is checked before any worker starts.  With one job, or one CPU,
    this is the built-in ``map``.  Otherwise J = min(jobs, CPUs) forked
    workers each replay ``items`` from its start, and worker w runs ``fn`` on
    items w, w + J, w + 2J, ...  No item is sent to a worker, so the stream
    must replay the same in every process: deterministic, and reading no
    shared state such as an open file.  Every caller passes one it builds
    itself from data already in memory.  Each worker writes its results down
    its own pipe with ``marshal``, so a result must be plain data (see
    ``_work``), and this process reads the pipes in turn, so results come in
    input order, an error (in ``fn`` or in the stream) is raised at its place,
    and a worker runs ahead by what its pipe and its write buffer hold.
    Results cross in buffer-sized batches, not one write each, so this
    process wakes rarely and leaves the CPUs to the workers.  A worker that
    exits before its end marker makes the map raise ``RuntimeError``.  When
    the map ends every worker is reaped; when it fails or is closed early,
    every worker is killed first.
    """
    check_range("jobs", jobs, 1)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        return map(fn, items)
    return _striped_map(fn, items, workers)


def _striped_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    pids: "list[int]" = []
    pipes: list = []
    finished = False
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                # a worker leaves only through os._exit: it never unwinds into the
                # caller or flushes the buffers (stdout, an open report file) it inherited
                try:
                    os.close(read_end)
                    for pipe in pipes:
                        pipe.close()
                    with os.fdopen(write_end, "wb") as out:
                        _work(fn, islice(items, w, None, workers), out)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            pids.append(pid)
            pipes.append(os.fdopen(read_end, "rb"))
        for pid, pipe in cycle(zip(pids, pipes)):
            try:
                result = marshal.load(pipe)
            except (EOFError, ValueError):
                raise RuntimeError(f"worker {pid} exited before sending all its results") from None
            if result is None:
                # the stream has ended in every stripe, so every worker is ending too
                finished = True
                return
            ok, value = result
            if not ok:
                import pickle  # only an error is pickled

                raise pickle.loads(value)
            yield value
    finally:
        if not finished:
            import signal  # only a worker that may still be running is killed

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _work(fn: Callable, stripe: Iterator, out) -> None:
    """Write ``(True, fn(item))`` for each item of ``stripe``, then the end marker ``None``.

    Each record is one ``marshal`` value, so a result must be plain data:
    None, a bool, int, float, str or bytes, or a tuple, list or dict of them.
    An error, in ``fn``, in the stream or in writing a result marshal cannot
    carry, is written as ``(False, the pickled error)`` and ends the stripe:
    the map raises it there and reads no further.
    """
    while True:
        try:
            data = marshal.dumps((True, fn(next(stripe))))
        except StopIteration:
            out.write(marshal.dumps(None))
            return
        except Exception as exc:
            import pickle

            out.write(marshal.dumps((False, pickle.dumps(exc))))
            return
        out.write(data)


def _ratio_job(row: "tuple[FamilySpec, int, int]") -> "tuple[int, int, int]":
    spec, i, count = row
    report = verify_theorem(space_at(spec, i))
    return report.d_sim, report.d, count


def _max_ratio(
    rows: Callable[[], Iterable["tuple[FamilySpec, int, int]"]], jobs: int
) -> RatioSearchResult:
    """First maximum of the reports' d_sim / d over the ``(spec, i, count)`` rows of ``rows()``.

    A row names space i of ``spec``, which the job that verifies it builds
    with ``space_at``; ``count`` is how many spaces it stands for.  A job
    sends back only (d_sim, d, count), so no space crosses a pipe and this
    process keeps no row past its job, at any length and worker count.
    ``rows`` is called again only to find the argmax's row, whose space is
    built again here.  Every caller builds its rows from data already in
    memory, so both calls, and every worker, see the same rows.
    """
    best: Optional[Fraction] = None
    argmax = None
    examined = 0
    for index, (d_sim, d, count) in enumerate(_ordered_map(_ratio_job, rows(), jobs)):
        examined += count
        if d > 0 and (best is None or Fraction(d_sim, d) > best):
            best = Fraction(d_sim, d)
            argmax = index
    argmax_space = None
    if argmax is not None:
        spec, i, _ = next(islice(rows(), argmax, None))
        argmax_space = space_at(spec, i)
    return RatioSearchResult(
        max_ratio=best,
        argmax_space=argmax_space,
        spaces_examined=examined,
        conjecture_violated=best is not None and best > 2,
    )


def random_search(n: int, size: int, samples: int, seed: int, jobs: int = 1) -> RatioSearchResult:
    """Maximum d_sim / d over ``samples`` random spaces, seeded by ``random_space_seeds``.

    Space i is ``random_space(n, size, s)`` for the i-th seed s.  The argmax
    is the first space in stream order attaining the maximum; spaces with
    d = 0 force d_sim = 0 and are excluded from the ratio.  The arguments are
    checked at the call.
    """
    return _max_ratio(
        lambda: (
            (FamilySpec("random", n, size=size, seed=s), 0, 1)
            for s in random_space_seeds(n, size, samples, seed)
        ),
        jobs,
    )


def exhaustive_search(n: int, jobs: int = 1) -> RatioSearchResult:
    """Maximum d_sim / d over every nonempty space on [n], one measurement per orbit.

    Representatives are the smallest members of their orbits and come in
    ``enumerate_spaces`` order, so the argmax is the first space of that
    order attaining the maximum; ``spaces_examined`` counts every space.
    """
    spec = FamilySpec("exhaustive", n)
    masks = _orbit_masks(n)
    result = _max_ratio(lambda: ((spec, mask - 1, size) for mask, size in masks), jobs)
    if result.spaces_examined != space_count(spec):
        raise AssertionError(f"orbit sizes on n = {n} sum to {result.spaces_examined}")
    return result


def _csv_line(fields: Iterable[str]) -> str:
    # no field needs quoting: kinds, integers, a/b ratios, true/false and float reprs
    return ",".join(fields) + "\n"


def _report_line(
    output_format: str, include_timing: bool, row: "tuple[FamilySpec, int]"
) -> str:
    """The finished report line of space i of a spec: a CSV row or a compact JSON document."""
    spec, i = row
    report = verify_theorem(space_at(spec, i), family_spec=spec)
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

    A row is a spec and the index of one of its spaces, so each job builds
    and verifies its own space and returns the finished line; this process
    writes the CSV header and then each line in stream order.
    ``include_timing=False`` drops the wall-time column, leaving output that
    is byte-identical across runs and worker counts.
    """
    if output_format not in ("csv", "jsonl"):
        raise ValueError(f"unknown report format {output_format!r}")
    specs = tuple(specs)  # every worker replays the rows, so they come from memory
    rows = ((spec, i) for spec in specs for i in range(space_count(spec)))
    job = functools.partial(_report_line, output_format, include_timing)
    lines = _ordered_map(job, rows, jobs)
    with open(output_path, "w", encoding="utf-8", newline="") as out:
        if output_format == "csv":
            out.write(_csv_line(CSV_COLUMNS if include_timing else CSV_COLUMNS[:-1]))
        count = 0
        for line in lines:
            out.write(line)
            count += 1
        return count
