"""Run the benchmark over ten seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --out perfbench/results/BENCH_x.json

For every workload it makes one ``run.py --trace 0`` run for each of the
seeds 1 to 10, then one traced run on seed 1, each ``run_seconds`` long as
BENCHMARK.json sets it.  It writes one JSON file with every run's result,
and per end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  Runs are made one
at a time, so they never compete with each other for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


#: Ten seeds, as the spread of each end-to-end metric is judged over ten runs.
SEEDS = tuple(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = next(line for line in proc.stdout.splitlines() if line.startswith("env "))
    return dict(result, seed=seed, elapsed_s=time.monotonic() - started, env=json.loads(env[4:]))


def summary(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    doc = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, seconds, 0))
            line = {name: round(m["value"], 4) for name, m in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} {line}", flush=True)
        traced = run(workload, SEEDS[0], seconds, 1)
        metrics = {
            metric["name"]: summary([r["metrics"][metric["name"]]["value"] for r in runs])
            for metric in bench["end_to_end"]
        }
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "elapsed_s": sum(r["elapsed_s"] for r in runs + [traced]),
            "end_to_end": metrics,
            "runs": runs,
            "traced": traced,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
