"""One repetition of a workload, in a fresh interpreter.

    python -I perfbench/child.py MODE WORKLOAD SEED WORKDIR

MODE is ``setup`` (import simvc and build the inputs, then stop), ``measure``
(run the workload's ``vc`` invocations through ``simvc.cli.main``) or
``trace`` (run the same spaces through the modules' public functions with a
span around each call).  The child prints one JSON object as its last line.
``ready`` is the ``time.monotonic()`` reading at which set-up ended; the
parent subtracts its own reading taken just before the spawn, which is valid
because that clock is system-wide on Linux.

Measured times are calibrated for machine speed.  On a shared 2-vCPU Xeon
VM the same interpreter work ran up to 1.6 times slower for stretches of
seconds to minutes, which repetition cannot average out.  So while a
measured repetition runs, a sampler thread times a fixed calibration loop
every SAMPLE_EVERY_S, and ``wall_s`` is the raw wall time multiplied by the
mean of CAL_REF_S / loop time: the time the same work takes at reference
speed.  ``setup_speed``, from a burst of loops right after set-up, scales
set-up time the same way.  Raw times are reported next to the calibrated ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: At reference speed one calibration loop of CAL_ITERATIONS steps takes CAL_REF_S.
CAL_ITERATIONS = 2000
CAL_REF_S = 250e-6
SAMPLE_EVERY_S = 0.02


def _cal_loop() -> float:
    """CPU seconds one fixed piece of interpreter work takes right now.

    Thread CPU time rather than wall time, so that a sample preempted by the
    workload's own processes (the report pool) still measures speed.
    """
    start = time.thread_time()
    table = {}
    for i in range(CAL_ITERATIONS):
        table[i & 63] = (i, i >> 3)
    return time.thread_time() - start


def _speed(durations: "list[float]") -> float:
    """Mean of CAL_REF_S / duration, without the top and bottom 2 %.

    The thread clock has been seen to read 0 for a whole loop; the trim keeps
    such rare readings from swamping the mean, and zero readings are dropped.
    """
    speeds = sorted(CAL_REF_S / d for d in durations if d > 0)
    trim = len(speeds) // 50
    return statistics.fmean(speeds[trim : len(speeds) - trim])


class SpeedSampler:
    """Samples the machine's speed from a background thread while the workload runs.

    Every SAMPLE_EVERY_S the thread times one calibration loop; speed() is the
    (trimmed) mean of CAL_REF_S / duration, so a wall time multiplied by it is the time
    the same work would take at reference speed.  With no sample (a workload
    shorter than one period) it times a short burst instead.

    A single-process workload is sampled wherever the thread runs, which in
    practice is the workload's CPU.  When the workload keeps every CPU busy
    (the report pool), ``rotate`` pins successive samples to each CPU in
    turn, so the mean covers all of them: over 12 repetitions each, that cut
    the spread of calibrated wall time from 3.0 % to 1.8 % (coefficient of
    variation).
    """

    def __init__(self, rotate: bool) -> None:
        self.samples: "list[float]" = []
        self._cpus = sorted(os.sched_getaffinity(0)) if rotate else []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(SAMPLE_EVERY_S):
            if self._cpus:
                # pins this thread only; the workload's processes keep every CPU
                os.sched_setaffinity(0, {self._cpus[turn % len(self._cpus)]})
                turn += 1
            self.samples.append(_cal_loop())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        return _speed(self.samples or [_cal_loop() for _ in range(20)])


def _run_cli(main, argv: "list[str]") -> dict:
    """One ``vc`` invocation with its stdout captured; errors become data."""
    buf = io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash fails this invocation's outputs, not the run
        error = traceback.format_exc()
    return {"rc": rc, "stdout": buf.getvalue(), "error": error}


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _percentile(sorted_values: "list[float]", pct: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def _layer_metrics(rec: SpanRecorder, root: int) -> dict:
    """Per-layer calls, self time, share and per-call percentiles from the spans.

    engine.lifted_vc is not a span: per space it is the verify_theorem
    duration minus the base and lift probe durations (floored at 0), and it
    is a part of experiments.verify, so it is left out of the sum that gives
    the traced wall.
    """
    selfs = rec.self_times()
    wall = rec.ends[root] - rec.starts[root]
    per_layer: "dict[str, list[float]]" = {name: [] for name in workloads.LAYERS}
    per_space: "dict[int, dict[str, float]]" = {}
    for name, space, own in zip(rec.names, rec.spaces, selfs):
        if name in per_layer:
            per_layer[name].append(own)
            if space is not None:
                per_space.setdefault(space, {})[name] = own
    per_layer["engine.lifted_vc"] = [
        max(0.0, t["experiments.verify"] - t["engine.base_vc"] - t["similarity.lift"])
        for t in per_space.values()
    ]
    metrics = {}
    for name, values in per_layer.items():
        ordered = sorted(values)
        total = sum(values)
        metrics[f"{name}.calls"] = len(values)
        metrics[f"{name}.self_s"] = total
        metrics[f"{name}.share"] = total / wall
        metrics[f"{name}.p50_us"] = _percentile(ordered, 50) * 1e6
        metrics[f"{name}.p99_us"] = _percentile(ordered, 99) * 1e6
    recorded = sum(metrics[f"{name}.self_s"] for name in workloads.LAYERS if name != "engine.lifted_vc")
    # Holds by construction (every non-root span is a layer span); only rounding is left.
    assert abs(recorded + selfs[root] - wall) <= 1e-6, "layer self times miss the traced wall"
    metrics["trace.wall_s"] = wall
    metrics["trace.unaccounted_s"] = selfs[root]
    return metrics


def _traced(workload: str, seed: int, work: Path) -> dict:
    """The workload's spaces through each module's public functions, one span per call.

    Per space the order is build, verify_theorem, then the base (vc_exact)
    and lift (lift_space) probes.  verify_theorem therefore runs with the
    lru_cache warmth a real ``vc`` run has; the probes run after it, with the
    _lift_bits and _cached_hypothesis entries of this space already filled,
    so the lift probe times a warm lift and the cold-miss cost of those
    caches stays inside engine.lifted_vc.  The benchmark never calls the
    engine's internals (candidate filters, level functions, vc_exact jobs).
    """
    from simvc.engine import vc_exact
    from simvc.experiments import CSV_COLUMNS, RatioSearchResult, verify_theorem
    from simvc.families import FamilySpec, enumerate_spaces, k_sparse, random_space
    from simvc.similarity import lift_space

    rec = SpanRecorder()
    totals = {"hypotheses": 0, "pair_columns": 0, "lifted": 0, "bytes_out": 0}
    results: "list[dict]" = []
    out_path = work / f"trace_{workload}_{seed}.out"

    def probe(sid: int, space) -> None:
        rec.call("engine.base_vc", sid, vc_exact, space)
        lifted = rec.call("similarity.lift", sid, lift_space, space)
        n = space.domain_size
        totals["hypotheses"] += len(space)
        totals["pair_columns"] += n * (n - 1) // 2
        totals["lifted"] += len(lifted)

    def emit_json(to_dict, sink) -> str:
        text = json.dumps(to_dict(), indent=2) + "\n"
        sink.write(text)
        return text

    with open(out_path, "w", encoding="utf-8", newline="") as sink:
        root = rec.begin("trace")
        if workload == "ksparse_grid":
            for sid, (k, n) in enumerate(workloads.GRID):
                space = rec.call("families.build", sid, k_sparse, n, k)
                report = rec.call(
                    "experiments.verify", sid, verify_theorem, space,
                    family_spec=FamilySpec("k_sparse", n, k=k),
                )
                probe(sid, space)
                text = rec.call("experiments.serialize", sid, emit_json, report.to_dict, sink)
                results.append({"rc": 0, "stdout": text, "error": None})
        elif workload == "exhaustive_n4":
            stream = enumerate_spaces(workloads.EXHAUSTIVE_N)
            best, argmax = None, None
            for sid in range(workloads.EXHAUSTIVE_SPACES):
                space = rec.call("families.build", sid, next, stream)
                report = rec.call("experiments.verify", sid, verify_theorem, space)
                probe(sid, space)
                if report.ratio is not None and (best is None or report.ratio > best):
                    best, argmax = report.ratio, space
            result = RatioSearchResult(
                best, argmax, workloads.EXHAUSTIVE_SPACES, best is not None and best > 2
            )
            text = rec.call("experiments.serialize", None, emit_json, result.to_dict, sink)
            results.append({"rc": 0, "stdout": text, "error": None})
        elif workload == "random_report":
            writer = csv.writer(sink, lineterminator="\n")

            def write_row(report) -> int:
                return writer.writerow(report.csv_row(include_timing=False))

            totals["bytes_out"] += rec.call(
                "experiments.serialize", None, writer.writerow, CSV_COLUMNS[:-1]
            )
            for sid, spec in enumerate(workloads.report_specs(seed)):
                n, size, space_seed = spec["n"], spec["size"], spec["seed"]
                space = rec.call("families.build", sid, random_space, n, size, space_seed)
                report = rec.call(
                    "experiments.verify", sid, verify_theorem, space,
                    family_spec=FamilySpec("random", n, size=size, seed=space_seed),
                )
                probe(sid, space)
                totals["bytes_out"] += rec.call("experiments.serialize", sid, write_row, report)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rec.end(root)
    for result in results:
        totals["bytes_out"] += len(result["stdout"].encode("utf-8"))

    metrics = _layer_metrics(rec, root)
    metrics["families.hypotheses"] = totals["hypotheses"]
    metrics["similarity.pair_columns"] = totals["pair_columns"]
    metrics["similarity.collapse_ratio"] = totals["lifted"] / totals["hypotheses"]
    metrics["experiments.bytes_out"] = totals["bytes_out"]
    trace_path = work / f"trace_{workload}_{seed}.json"
    rec.write(trace_path, {"workload": workload, "seed": seed, "metrics": metrics})
    return {
        "metrics": metrics,
        "verify_s": metrics["experiments.verify.self_s"],
        "results": results,
        "out": str(out_path),
        "trace_file": str(trace_path),
    }


def main(argv: "list[str]") -> int:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    import simvc
    import simvc.cli

    src = (ROOT / "src").resolve()
    if src not in Path(simvc.__file__).resolve().parents:
        sys.stderr.write(f"simvc imported from {simvc.__file__}, not from {src}\n")
        return 3
    argvs = workloads.invocations(workload, seed, work)
    out = {"ready": time.monotonic()}
    out["setup_speed"] = _speed([_cal_loop() for _ in range(20)])
    if mode == "measure":
        with SpeedSampler(rotate=workload == "random_report") as sampler:
            start = time.perf_counter()
            out["results"] = [_run_cli(simvc.cli.main, a) for a in argvs]
            out["raw_wall_s"] = time.perf_counter() - start
        out["speed"] = sampler.speed()
        out["wall_s"] = out["raw_wall_s"] * out["speed"]
        out["rss_mib"] = _peak_rss_mib()
    elif mode == "trace":
        out.update(_traced(workload, seed, work))
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    out["python"] = sys.version.split()[0]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
