"""The `vc` command-line surface: flags, files, exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from simvc import (
    DOMAIN_SIZE_CAP,
    LOAD_DOMAIN_SIZE_CAP,
    full_cube,
    k_sparse,
    random_space,
    space_to_dict,
)
from simvc import cli
from simvc.bounds import binary_entropy
from simvc.cli import main
from simvc.experiments import RatioSearchResult
from simvc.families import splitmix64_stream

from conftest import FIVE_HALVES_SPACE, RATIO_THREE_SPACE, module_env


def write_space(path, space, **extra):
    doc = space_to_dict(space, **extra)
    path.write_text(json.dumps(doc))
    return path


def write_wide_space(path, n, size):
    """A seeded random space file over ``n`` <= 64 columns, beyond the families' cap."""
    rng = splitmix64_stream(7)
    rows = [format(next(rng) >> (64 - n), f"0{n}b") for _ in range(size)]
    path.write_text(json.dumps({"domain_size": n, "hypotheses": rows}))
    return path


EXHAUSTIVE_N4_OUTPUT = """\
{
  "max_ratio": "2",
  "argmax_space": {
    "domain_size": 4,
    "hypotheses": [
      "0000",
      "0001",
      "0010",
      "0100"
    ]
  },
  "spaces_examined": 65535,
  "conjecture_violated": false
}
"""


RANDOM_N4_SIZE6_OUTPUT = """\
{
  "max_ratio": "1",
  "argmax_space": {
    "domain_size": 4,
    "hypotheses": [
      "0010",
      "0111",
      "1001",
      "1010",
      "1011",
      "1101"
    ]
  },
  "spaces_examined": 25,
  "conjecture_violated": false
}
"""


LIFTED_K_SPARSE_5_2_COMPUTE = """\
{
  "d": 4,
  "witness": {
    "subset": [
      0,
      1,
      2,
      3
    ],
    "patterns": [
      "0000",
      "0001",
      "0010",
      "0011",
      "0100",
      "0101",
      "0110",
      "0111",
      "1000",
      "1001",
      "1010",
      "1011",
      "1100",
      "1101",
      "1110",
      "1111"
    ]
  }
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=None):
    """``python -m simvc`` in a child process, with its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "simvc", *argv],
        capture_output=True, text=True, env=module_env(), timeout=timeout,
    )


@pytest.fixture
def expect_input_error(tmp_path, monkeypatch, capsys):
    """Check one input error: exit 1, nothing on stdout, exactly ``vc: error:
    <message>`` on stderr, and no ``--out``/``--output`` file, not even an empty one.

    ``files`` maps names to documents written under ``tmp_path``, where ``argv``
    (one space-separated string) runs.
    """
    def check(files, argv, message):
        for name, doc in files.items():
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv.split()) == (1, "", f"vc: error: {message}\n")
        assert sorted(os.listdir(tmp_path)) == sorted(files)

    return check


def assert_usage_error(capsys, argv, fragment):
    """argparse's usage line, exit 1 and nothing on stdout; ``fragment`` is a part
    of its message worded alike on Python 3.10-3.13."""
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (1, "")
    assert captured.err.startswith("usage: vc")
    assert fragment in captured.err


REPORT = "report --spec spec.json --format csv --out x.csv"


class TestCompute:
    def test_lifted_k_sparse_output(self, tmp_path, capsys):
        # a four-column witness: every realized pattern, in lexicographic order
        src = write_space(tmp_path / "s.json", k_sparse(5, 2))
        dst = tmp_path / "lifted.json"
        assert run_cli(capsys, "lift", "--input", str(src), "--output", str(dst))[0] == 0
        code, out, err = run_cli(capsys, "compute", "--input", str(dst))
        assert (code, err) == (0, "")
        assert out == LIFTED_K_SPARSE_5_2_COMPUTE

    def test_naive(self, tmp_path, capsys):
        # each singleton is a maximum, and each pair of the lifted file; the oracle
        # returns the engine's first one, so the two documents are the same bytes
        path = write_space(tmp_path / "s.json", k_sparse(3, 1))
        lifted = tmp_path / "lifted.json"
        assert run_cli(capsys, "lift", "--input", str(path), "--output", str(lifted))[0] == 0
        docs = []
        for src in (path, lifted):
            code, out, _ = run_cli(capsys, "compute", "--input", str(src), "--naive")
            assert code == 0
            assert out == run_cli(capsys, "compute", "--input", str(src))[1]
            docs.append(json.loads(out))
        assert docs == [
            {"d": 1, "witness": {"subset": [0], "patterns": ["0", "1"]}},
            {"d": 2, "witness": {"subset": [0, 1], "patterns": ["00", "01", "10", "11"]}},
        ]


class TestLift:
    def test_writes_pair_domain_header(self, tmp_path, capsys):
        src = write_space(tmp_path / "s.json", k_sparse(3, 1))
        dst = tmp_path / "lifted.json"
        code, _, _ = run_cli(capsys, "lift", "--input", str(src), "--output", str(dst))
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["domain_size"] == 3
        assert doc["pair_domain_of"] == 3
        # bit-string order as written; int order would be 100, 010, 001, 111
        assert doc["hypotheses"] == ["001", "010", "100", "111"]

    def test_widest_original_domain_feeds_compute(self, tmp_path, capsys):
        # compute reads files up to C(24, 2) columns so that this round-trips
        src = write_space(tmp_path / "s.json", random_space(DOMAIN_SIZE_CAP, 4, 7))
        dst = tmp_path / "lifted.json"
        assert run_cli(capsys, "lift", "--input", str(src), "--output", str(dst))[0] == 0
        assert json.loads(dst.read_text())["domain_size"] == LOAD_DOMAIN_SIZE_CAP
        code, out, err = run_cli(capsys, "compute", "--input", str(dst))
        assert (code, err) == (0, "")
        assert json.loads(out)["d"] == 2


class TestVerify:
    def test_family_ksparse(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "ksparse", "--n", "5", "--k", "2")
        assert code == 0
        doc = json.loads(out)
        assert (doc["d"], doc["d_sim"], doc["ratio"]) == (2, 4, "2")
        assert doc["family"] == {"family": "k_sparse", "n": 5, "k": 2}

    def test_family_cube(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "cube", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert (doc["d"], doc["d_sim"], doc["ratio"]) == (3, 2, "2/3")

    def test_input_file(self, tmp_path, capsys):
        cases = ((full_cube(2), "1/2"), (FIVE_HALVES_SPACE, "5/2"), (RATIO_THREE_SPACE, "3"))
        for space, ratio in cases:
            path = write_space(tmp_path / "s.json", space)
            code, out, _ = run_cli(capsys, "verify", "--input", str(path))
            # a ratio above 2 inside the paper's bracket is a finding, not a failure
            assert code == 0
            doc = json.loads(out)
            assert (doc["family"], doc["ratio"]) == ("file", ratio)

    def test_input_above_original_cap_is_input_error(self, tmp_path):
        # a 60-column space is a 1770-column lift; a hang fails on the timeout
        path = write_wide_space(tmp_path / "s.json", 60, 16)
        proc = run_module("verify", "--input", str(path), timeout=30)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "vc: error: domain_size must be in 1..24, got 60\n"


class TestSearch:
    def test_exhaustive_n2(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--mode", "exhaustive", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_ratio"] == "1"
        assert doc["spaces_examined"] == 15
        assert doc["conjecture_violated"] is False

    def test_random_mode(self, capsys):
        for jobs in ("1", "2"):
            code, out, _ = run_cli(
                capsys,
                "search", "--mode", "random", "--n", "4", "--size", "6",
                "--samples", "25", "--seed", "11", "--jobs", jobs,
            )
            assert code == 0
            assert out == RANDOM_N4_SIZE6_OUTPUT

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exhaustive_n4_output(self, capsys, jobs):
        # at jobs 2 each worker replays the 401 orbit representatives and verifies half
        code, out, _ = run_cli(
            capsys, "search", "--mode", "exhaustive", "--n", "4", "--jobs", jobs
        )
        assert code == 0
        assert out == EXHAUSTIVE_N4_OUTPUT

    def _assert_violation_preserved(self, capsys, monkeypatch, target, *argv):
        fake = RatioSearchResult(
            max_ratio=Fraction(5, 2),
            argmax_space=full_cube(2),
            spaces_examined=7,
            conjecture_violated=True,
        )
        monkeypatch.setattr(target, lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "search", *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["max_ratio"] == "5/2"
        assert doc["conjecture_violated"] is True
        assert doc["argmax_space"]["hypotheses"] == ["00", "01", "10", "11"]

    def test_violation_is_preserved_and_exits_two(self, capsys, monkeypatch):
        self._assert_violation_preserved(
            capsys, monkeypatch, "simvc.cli.exhaustive_search", "--mode", "exhaustive", "--n", "2"
        )

    def test_random_violation_is_preserved_and_exits_two(self, capsys, monkeypatch):
        self._assert_violation_preserved(
            capsys, monkeypatch, "simvc.cli.random_search",
            "--mode", "random", "--n", "3", "--size", "2", "--samples", "3",
        )


class TestBounds:
    def test_cap(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--cap", "12", "2")
        assert code == 0
        assert json.loads(out) == {"domain_size": 12, "d": 2, "cap": 6}

    def test_solve_delta(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--solve-delta")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"epsilon", "delta", "entropy_at_epsilon"}
        assert doc["epsilon"] == pytest.approx(0.110028, abs=1e-5)
        assert 4.54 < doc["delta"] < 4.55

    def test_solve_delta_stops_at_adjacent_floats(self):
        proc = run_module("bounds", "--solve-delta", timeout=60)
        assert proc.returncode == 0
        eps = json.loads(proc.stdout)["epsilon"]
        assert binary_entropy(eps) < 0.5 <= binary_entropy(math.nextafter(eps, 1))

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_solve_delta_non_finite_tolerance_is_input_error(self, capsys, tol):
        assert_usage_error(
            capsys, f"bounds --solve-delta --tol {tol}", f"unrecognized arguments: --tol {tol}"
        )


class TestReport:
    def test_csv_report(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                [
                    {"family": "ksparse", "n": 5, "k": 2},
                    {"family": "cube", "n": 3},
                    {"family": "random", "n": 4, "size": 6, "seed": 3},
                ]
            )
        )
        out = tmp_path / "rows.csv"
        code, stdout, _ = run_cli(
            capsys, "report", "--spec", str(spec), "--format", "csv", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout)["rows"] == 3
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("k_sparse,5,2,,,2,4,2,true,true")


# Every input and usage error `vc` reports, one row per case, through two checks;
# `TestBounds.test_solve_delta_non_finite_tolerance_is_input_error` above guards
# that `vc bounds` has no `--tol`. A new flag's error is one more row here.

CUBE_2 = space_to_dict(full_cube(2))
WIDE = {"domain_size": 300, "hypotheses": ["not a row"]}

#: id -> (files written under tmp_path, argv, the exact message)
INPUT_ERRORS = {
    "compute-missing-file": (
        {}, "compute --input no.json", "[Errno 2] No such file or directory: 'no.json'",
    ),
    "compute-bad-json": (
        {"s.json": "{not json"}, "compute --input s.json",
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "compute-row-too-long": (
        {"s.json": {"domain_size": 2, "hypotheses": ["011"]}}, "compute --input s.json",
        "hypothesis '011' has length 3, expected 2",
    ),
    "lift-one-element": (
        {"s.json": {"domain_size": 1, "hypotheses": ["0", "1"]}},
        "lift --input s.json --output lifted.json",
        "cannot lift a space over 1 element(s): the pair domain is empty"
        " (treat the lifted VC dimension as 0)",
    ),
    "lift-above-original-cap": (
        {"s.json": {"domain_size": 25, "hypotheses": ["0" * 25]}},
        "lift --input s.json --output lifted.json",
        "domain_size must be in 1..24, got 25",
    ),
    "verify-family-and-input": (
        {"s.json": CUBE_2}, "verify --family cube --n 2 --input s.json",
        "--input and --family are mutually exclusive",
    ),
    "verify-ksparse-without-k": ({}, "verify --family ksparse --n 5", "k_sparse requires k"),
    "verify-cube-with-k": ({}, "verify --family cube --n 3 --k 2", "full_cube does not take k"),
    "verify-input-with-n-and-k": (
        {"s.json": CUBE_2}, "verify --input s.json --n 9 --k 4", "--input does not take --n",
    ),
    "verify-no-target": ({}, "verify", "choose --family ksparse|cube or --input FILE"),
    "verify-cube-without-n": ({}, "verify --family cube", "--family cube requires --n"),
    "search-jobs-0": (
        {}, "search --mode exhaustive --n 2 --jobs 0", "jobs must be at least 1, got 0",
    ),
    "search-exhaustive-with-random-flags": (
        {}, "search --mode exhaustive --n 2 --size 5 --seed 9 --samples 3",
        "--mode exhaustive does not take --size",
    ),
    "search-exhaustive-without-n": (
        {}, "search --mode exhaustive", "--mode exhaustive requires --n",
    ),
    "search-random-without-size": (
        {}, "search --mode random --n 3", "--mode random requires --n and --size",
    ),
    "search-samples-0": (
        {}, "search --mode random --n 3 --size 2 --samples 0", "samples must be at least 1, got 0",
    ),
    # SplitMix64 would reduce -1 to 2^64-1 and print that seed's result
    "search-seed--1": (
        {}, "search --mode random --n 4 --size 5 --samples 3 --seed -1",
        "seed must be in 0..2^64-1, got -1",
    ),
    "report-spec-not-array": (
        {"spec.json": {"family": "cube", "n": 2}}, REPORT,
        "report spec file must contain a JSON array of family specs",
    ),
    "report-entry-not-an-object": (
        {"spec.json": [3]}, REPORT, "spec entry 1: family spec must be an object, got 3",
    ),
    "report-jobs-0": (
        {"spec.json": [{"family": "cube", "n": 2}]}, f"{REPORT} --jobs 0",
        "jobs must be at least 1, got 0",
    ),
    "report-unknown-family": (
        {"spec.json": [{"family": "warp", "n": 3}]}, REPORT, "spec entry 1: unknown family 'warp'",
    ),
    "report-seed-2^64": (
        {"spec.json": [{"family": "random", "n": 4, "size": 6, "seed": 2**64}]}, REPORT,
        f"spec entry 1: seed must be in 0..2^64-1, got {2**64}",
    ),
    "report-unhashable-family": (
        {"spec.json": [{"family": ["cube"], "n": 2}]}, REPORT,
        "spec entry 1: unknown family ['cube']",
    ),
    "report-float-n": (
        {"spec.json": [{"family": "cube", "n": 2.9}]}, REPORT,
        "spec entry 1: n must be an integer, got 2.9",
    ),
    "report-cube-with-k": (
        {"spec.json": [{"family": "cube", "n": 3, "k": 2, "seed": 5}]}, REPORT,
        "spec entry 1: full_cube does not take k",
    ),
    "report-ksparse-with-size": (
        {"spec.json": [{"family": "ksparse", "n": 3, "k": 1, "size": 4}]}, REPORT,
        "spec entry 1: k_sparse does not take size",
    ),
    "report-cube-misspelt-k": (
        {"spec.json": [{"family": "cube", "n": 4, "kk": 2}]}, REPORT,
        "spec entry 1: malformed family spec {'family': 'cube', 'n': 4, 'kk': 2}:"
        " unknown key 'kk'",
    ),
    "report-random-misspelt-seed": (
        {"spec.json": [{"family": "random", "n": 4, "size": 3, "seed": 1, "sed": 5}]}, REPORT,
        "spec entry 1: malformed family spec {'family': 'random', 'n': 4, 'size': 3,"
        " 'seed': 1, 'sed': 5}: unknown key 'sed'",
    ),
    # every entry is checked before the output file is opened
    "report-out-of-range-entry-jobs-1": (
        {"spec.json": [{"family": "cube", "n": 2}, {"family": "cube", "n": 99}]},
        f"{REPORT} --jobs 1", "spec entry 2: n must be in 1..24, got 99",
    ),
    "report-out-of-range-entry-jobs-2": (
        {"spec.json": [{"family": "cube", "n": 2}, {"family": "cube", "n": 99}]},
        f"{REPORT} --jobs 2", "spec entry 2: n must be in 1..24, got 99",
    ),
    # int("0_1", 2) parses; the reader's 0/1 check rejects the row
    "lift-bit-underscore": (
        {"s.json": {"domain_size": 3, "hypotheses": ["0_1"]}},
        "lift --input s.json --output lifted.json", "invalid bit character '_' in '0_1'",
    ),
    # the cap is checked once, before any row is parsed, so the bad row is never read
    "lift-wide-file": (
        {"wide.json": WIDE}, "lift --input wide.json --output lifted.json",
        f"domain_size must be in 1..{DOMAIN_SIZE_CAP}, got 300",
    ),
    "verify-wide-file": (
        {"wide.json": WIDE}, "verify --input wide.json",
        f"domain_size must be in 1..{DOMAIN_SIZE_CAP}, got 300",
    ),
    "compute-wide-file": (
        {"wide.json": WIDE}, "compute --input wide.json",
        f"domain_size must be in 1..{LOAD_DOMAIN_SIZE_CAP}, got 300",
    ),
    "search-exhaustive-n--1": ({}, "search --mode exhaustive --n -1", "n must be in 1..4, got -1"),
    "search-exhaustive-n-0": ({}, "search --mode exhaustive --n 0", "n must be in 1..4, got 0"),
    "search-exhaustive-n-5": ({}, "search --mode exhaustive --n 5", "n must be in 1..4, got 5"),
    "bounds-cap-d-above-n": ({}, "bounds --cap 3 5", "--cap D must be in 0..3, got 5"),
    "bounds-cap-d-negative": ({}, "bounds --cap 3 -1", "--cap D must be in 0..3, got -1"),
    "bounds-cap-n-above-cap": (
        {}, "bounds --cap 25 2", f"--cap N must be in 1..{DOMAIN_SIZE_CAP}, got 25",
    ),
    "bounds-cap-n-0": ({}, "bounds --cap 0 0", f"--cap N must be in 1..{DOMAIN_SIZE_CAP}, got 0"),
}

#: id -> (argv, a fragment of argparse's message worded alike on Python 3.10-3.13)
USAGE_ERRORS = {
    "unknown-command": ("frobnicate", "invalid choice: 'frobnicate'"),
    "compute-without-input": ("compute", "the following arguments are required: --input"),
    "bounds-without-mode": ("bounds", "one of the arguments --cap --solve-delta is required"),
    "bounds-two-modes": (
        "bounds --cap 3 2 --solve-delta",
        "argument --solve-delta: not allowed with argument --cap",
    ),
    "bounds-entropy": ("bounds --entropy 0.11", "unrecognized arguments: --entropy 0.11"),
    "bounds-sauer": ("bounds --sauer 6 4", "unrecognized arguments: --sauer 6 4"),
    # the solver takes no tolerance: it stops at adjacent floats
}


@pytest.mark.parametrize(
    "files, argv, message", list(INPUT_ERRORS.values()), ids=list(INPUT_ERRORS)
)
def test_input_error(expect_input_error, files, argv, message):
    expect_input_error(files, argv, message)


@pytest.mark.parametrize("argv, fragment", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error(capsys, argv, fragment):
    assert_usage_error(capsys, argv, fragment)


def test_reused_parser_carries_nothing_between_calls(capsys):
    # main parses every command line of a process with one cached parser
    assert cli._build_parser() is cli._build_parser()
    random_argv = (
        "search", "--mode", "random", "--n", "4", "--size", "6", "--samples", "25", "--seed", "11",
    )
    assert run_cli(capsys, *random_argv) == (0, RANDOM_N4_SIZE6_OUTPUT, "")
    # a --seed left over from the random run would make this an input error
    code, out, err = run_cli(capsys, "search", "--mode", "exhaustive", "--n", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["spaces_examined"] == 15
    assert_usage_error(capsys, "frobnicate", "invalid choice: 'frobnicate'")
    assert run_cli(capsys, *random_argv) == (0, RANDOM_N4_SIZE6_OUTPUT, "")


def test_closed_stdout_exits_141_silently():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simvc", "verify", "--family", "cube", "--n", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=module_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_program_fault_is_not_an_input_error(monkeypatch, capsys):
    # only ValueError and OSError are input errors
    def broken(*args, **kwargs):
        raise TypeError("a fault in the program")

    monkeypatch.setattr("simvc.cli.verify_theorem", broken)
    with pytest.raises(TypeError, match="a fault in the program"):
        main(["verify", "--family", "cube", "--n", "2"])
    assert capsys.readouterr().err == ""


def test_module_entry_point(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(space_to_dict(full_cube(2))))
    proc = run_module("compute", "--input", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 2


def test_import_loads_neither_dataclasses_nor_the_pool(tmp_path):
    # every vc call pays for what ``import simvc.cli`` loads, and report lines
    # are joined without csv; the workers of --jobs are forked without
    # multiprocessing and send plain data, so a run without an error imports
    # neither pickle, which carries only an error, nor signal, which kills only
    # a worker still running.  Site hooks may preload modules, so only what simvc adds counts.
    spec = tmp_path / "spec.json"
    spec.write_text('[{"family": "exhaustive", "n": 2}]')
    code = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "before = set(sys.modules)\n"
        "import simvc.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "simvc.cli.main(['report', '--spec', sys.argv[1], '--format', 'csv',\n"
        "                '--out', sys.argv[2], '--jobs', '2', '--no-timing'])\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(spec), str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=module_env(), timeout=60, check=True,
    )
    lines = proc.stdout.splitlines()
    imported, after_report = set(lines[0].split()), set(lines[-1].split())
    assert "simvc.cli" in imported
    assert not imported & {"csv", "dataclasses", "inspect", "multiprocessing"}
    assert json.loads("\n".join(lines[1:-1]))["rows"] == 15
    assert not after_report & {"csv", "dataclasses", "multiprocessing", "pickle", "signal"}
