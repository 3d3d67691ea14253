"""Self-test of the benchmark's checks: a corrupted reference must fail outputs.

    python3 perfbench/selftest.py

For each workload it writes a copy of ``reference.json`` with one pinned
value of that workload changed, runs ``run.py`` once against the copy and
requires ``correct: false`` with at least one failed output, that is a
nonzero ``fail_frac``.  It also requires ``BENCHMARK.json`` to declare
exactly the metrics ``run.py`` reports.  It takes about a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def corrupt(reference: dict, workload: str) -> dict:
    bad = copy.deepcopy(reference)
    if workload == "ksparse_grid":
        bad[workload]["cells"]["3,9"]["witness_sim"][-1] = [7, 8]
    elif workload == "exhaustive_n4":
        bad[workload]["argmax_space"]["hypotheses"][-1] = "1111"
    else:
        bad[workload]["rows"][-1] = bad[workload]["rows"][-1].replace("true", "false", 1)
    return bad


def main() -> int:
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append(f"end_to_end metrics {declared} differ from run.py's {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != run.PER_LAYER:
        problems.append("per_layer metrics differ from run.py's")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    run.WORK.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        path = run.WORK / f"corrupted_reference_{workload}.json"
        path.write_text(json.dumps(corrupt(reference, workload)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", "0",
             "--reference", str(path)],
            capture_output=True, text=True, cwd=ROOT, timeout=300,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problems.append(f"{workload}: no result (exit {proc.returncode}) {proc.stderr.strip()}")
            continue
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload}: corrupted reference gives correct={result['correct']} "
              f"fail_frac={fail_frac:.4g} ({result['failed']} of {result['attempted']})")
        if result["correct"] or fail_frac == 0:
            problems.append(f"{workload}: a corrupted reference went unnoticed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
