"""simvc benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ksparse_grid --seed 1 --seconds 30 --trace 0

Run it from anywhere; it works on the checkout it sits in.  Every measured
repetition is a fresh interpreter (``child.py``) that imports simvc from
``src/`` and calls ``simvc.cli.main`` exactly as ``vc`` would, so the
program's lru_caches start cold each time.

``--trace 0`` times repetitions until ``--seconds`` is used up and reports the
end-to-end metrics: the medians of ``wall_s``, ``setup_s`` (interpreter
start, ``import simvc`` and building the inputs, sampled on extra set-up-only
starts as well) and ``peak_rss_mib``, with times calibrated for machine speed
(see child.py).  ``--trace 1`` makes one untraced and one traced repetition
and reports the per-layer metrics.  Every output is checked against
``reference.json``; ``fail_frac`` is ``failed / attempted``.  README.md
defines every workload and metric.  The last line of stdout is the JSON result; a
human-readable summary and the environment come before it, and the full
result is also written to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    **{
        f"{layer}.{stat}": unit
        for layer in workloads.LAYERS
        for stat, unit in (
            ("calls", "count"),
            ("self_s", "s"),
            ("share", "fraction"),
            ("p50_us", "us"),
            ("p99_us", "us"),
        )
    },
    "families.hypotheses": "count",
    "similarity.pair_columns": "count",
    "similarity.collapse_ratio": "ratio",
    "experiments.bytes_out": "B",
    "experiments.pool_efficiency": "ratio",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}

#: Set-up-only starts per run, on top of the set-up of every measured repetition.
SETUP_SAMPLES = 6

#: Every run must end within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run child.py once; its JSON result plus ``setup_s`` measured from the spawn."""
    argv = [sys.executable, "-I", str(CHILD), mode, workload, str(seed), str(WORK)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child passed the run deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{mode} child printed no result") from None
    out["raw_setup_s"] = out["ready"] - started
    out["setup_s"] = out["raw_setup_s"] * out["setup_speed"]
    return out


def report_output(rep: dict, seed: int) -> "bytes | None":
    """The CSV a random_report repetition wrote, or None if the invocation failed.

    The invocation fails unless it exited 0 and printed that it wrote every
    spec's row to the CSV it was given.
    """
    result = rep["results"][0]
    out = workloads.report_paths(WORK, seed)[1]
    try:
        doc = json.loads(result["stdout"]) if result["error"] is None and result["rc"] == 0 else {}
        if doc.get("rows") != workloads.REPORT_SPECS or doc.get("out") != str(out):
            return None
        return out.read_bytes()
    except (ValueError, AttributeError, OSError):
        return None


def check(workload: str, rep: dict, seed: int, reference: dict, traced: bool = False):
    """(attempted, failed) for one repetition."""
    if workload == "ksparse_grid":
        return workloads.check_ksparse(rep["results"], reference)
    if workload == "exhaustive_n4":
        return workloads.check_exhaustive(rep["results"], reference, traced)
    data = Path(rep["out"]).read_bytes() if traced else report_output(rep, seed)
    return workloads.check_report(data, seed, reference)


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(args, python: str, reps: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": python,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": reps,
    }


def run_untraced(args, reference: dict, deadline: float):
    """Set-up samples and measured repetitions until ``--seconds`` is used."""
    setups = [spawn("setup", args.workload, args.seed, deadline) for _ in range(SETUP_SAMPLES)]
    reps, checks = [], []
    started = time.monotonic()
    while True:
        rep = spawn("measure", args.workload, args.seed, deadline)
        reps.append(rep)
        # checked at once: the next repetition replaces the report CSV
        checks.append(check(args.workload, rep, args.seed, reference))
        elapsed = time.monotonic() - started
        # another repetition only if it should end within --seconds
        if elapsed + elapsed / len(reps) > args.seconds:
            break
    setups += reps
    metrics = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mib": statistics.median(rep["rss_mib"] for rep in reps),
    }
    samples = {
        key: [rep[key] for rep in reps] for key in ("wall_s", "raw_wall_s", "speed", "rss_mib")
    }
    samples.update({key: [s[key] for s in setups] for key in ("setup_s", "raw_setup_s")})
    return reps, checks, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="pinned reference outputs (the self-test passes a corrupted copy)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    reference = json.loads(args.reference.read_text(encoding="utf-8"))[args.workload]
    WORK.mkdir(exist_ok=True)

    try:
        # The first start compiles bytecode and fails fast if src/simvc is absent.
        python = spawn("setup", args.workload, args.seed, deadline)["python"]
        if args.trace == 0:
            reps, checks, metrics, samples = run_untraced(args, reference, deadline)
            traced = None
        else:
            reps = [spawn("measure", args.workload, args.seed, deadline)]
            checks = [check(args.workload, reps[0], args.seed, reference)]
            traced = spawn("trace", args.workload, args.seed, deadline)
            checks.append(check(args.workload, traced, args.seed, reference, traced=True))
    except ChildFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    attempted = sum(a for a, _ in checks)
    failed = sum(f for _, f in checks)
    if traced is not None:
        layer = traced["metrics"]
        # the traced run has no speed sampler, so both sides are raw wall times
        untraced_wall = reps[0]["raw_wall_s"]
        jobs = workloads.REPORT_JOBS if args.workload == "random_report" else 1
        layer["experiments.pool_efficiency"] = traced["verify_s"] / (jobs * untraced_wall)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced_wall
        metrics = {name: layer[name] for name in PER_LAYER}
        units = PER_LAYER
        samples = {"untraced_wall_s": untraced_wall, "trace_file": traced["trace_file"]}
    else:
        units = END_TO_END

    env = environment(args, python, len(reps))
    fail_frac = failed / attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} runs={len(reps)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    if traced is None:
        for name in ("raw_wall_s", "raw_setup_s"):
            print(f"  {name:34s} {statistics.median(samples[name]):.6g} s (uncalibrated)")
    print(f"  {'fail_frac':34s} {fail_frac:.6g} fraction ({failed} of {attempted} outputs failed)")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, fail_frac=fail_frac, env=env, samples=samples)
    (WORK / f"result_{args.workload}_{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
