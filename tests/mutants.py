"""Each mutant breaks one line of src/simvc, and each of its pytest selections must fail.

Run ``python tests/mutants.py``.  Each mutant gets a copy of the tree in a temporary directory,
whose ``src/`` pyproject's ``pythonpath`` puts first, where ``old`` (found exactly once) becomes
``new``.  A selection passes only if pytest exits 1; 2, 4 and 5 are a collection error, a usage
error and an empty selection.  It prints one line per selection and exits 1 if any fails.
"""

import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ORBITS = "tests/test_oracles.py tests/test_families.py::TestExhaustiveOrbits" \
    " -k 'exhaustive_orbits or ExhaustiveOrbits'"

#: name: (file under src/simvc, old, new, pytest selections)
MUTANTS = {
    # a row floor one power of two too high makes the search miss maximum sets: the vc_naive
    # rows, the extremal row alone (its one-row witness pattern) and criterion 5 must each fail
    "floor": ("engine.py", "floor = 1 << (need - 1)", "floor = 1 << need", ["tests/test_oracles.py",
        "'tests/test_oracles.py::test_fast_path_matches_oracle[vc_exact-naive-extremal]'",
        "tests/test_acceptance.py::test_criterion_5_oracle_equivalence"]),
    # a complement orbit's first mask is the complement of the orbit's largest, not smallest
    "smallest": ("families.py", "full ^ max(orbit)", "full ^ min(orbit)", [ORBITS]),
    # marking the half-weight masks too drops the 74 orbits that hold exactly half the cube
    "half": ("families.py", "w + v > half", "w + v >= half", [ORBITS]),
    # the searches keep the first maximum; keeping the last must fail against conftest's
    # serial reference at jobs 1, 2 and 4
    "last-maximum": ("experiments.py", "Fraction(d_sim, d) > best", "Fraction(d_sim, d) >= best",
                     ["tests/test_oracles.py tests/test_experiments.py"]),
    # without _check_range a seed outside 0..2^64-1 is accepted; only the seed rows run, since
    # unchecked n, k and size rows would loop forever drawing a ninth distinct row on n = 3
    # or enumerate the 2^32 spaces on n = 5
    "no-range-check": ("families.py", "if not low <= value <= high:", "if False:",
                       ["tests/test_errors.py -k seed"]),
    # without check_int a float or bool is accepted: the rows and the raise-site check fail
    "no-int-check": ("space.py", "if type(value) is not int:", "if False:",
                     ["tests/test_errors.py"]),
    # a search whose main process holds every row grows with --samples
    "buffered-rows": ("experiments.py", "_ratio_job, rows()", "_ratio_job, list(rows())",
                      ["tests/test_experiments.py -k live_rows"]),
}


def main() -> int:
    failed = 0
    for name, (file, old, new, selections) in MUTANTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp, "repo")
            shutil.copytree(Path(__file__).parents[1], copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work"))
            path = copy / "src" / "simvc" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                sys.exit(f"FAIL {name}: {old!r} occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new), encoding="utf-8")
            for selection in selections:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     *shlex.split(selection)], cwd=copy, capture_output=True, text=True,
                    timeout=300)  # a mutant that hangs a test stops the run with an error
                failed += run.returncode != 1
                summary = (run.stdout + run.stderr).strip().rsplit("\n", 1)[-1]
                print(f"{'ok  ' if run.returncode == 1 else 'FAIL'} {name}: pytest {selection}"
                      f" exited {run.returncode}: {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
