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
    RatioSearchResult,
    full_cube,
    k_sparse,
    random_space,
    space_to_dict,
    splitmix64_stream,
)
from simvc.bounds import binary_entropy
from simvc.cli import main

from conftest import module_env


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


class TestCompute:
    def test_exact(self, tmp_path, capsys):
        path = write_space(tmp_path / "s.json", k_sparse(3, 1))
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 1
        assert doc["witness"]["subset"] == [0]
        assert doc["witness"]["patterns"] == ["0", "1"]

    def test_lifted_k_sparse_output(self, tmp_path, capsys):
        # a four-column witness: every realized pattern, in lexicographic order
        src = write_space(tmp_path / "s.json", k_sparse(5, 2))
        dst = tmp_path / "lifted.json"
        assert run_cli(capsys, "lift", "--input", str(src), "--output", str(dst))[0] == 0
        code, out, err = run_cli(capsys, "compute", "--input", str(dst))
        assert (code, err) == (0, "")
        assert out == LIFTED_K_SPARSE_5_2_COMPUTE

    def test_naive(self, tmp_path, capsys):
        path = write_space(tmp_path / "s.json", full_cube(2))
        code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--naive")
        assert code == 0
        assert json.loads(out) == {"d": 2, "witness": None}

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", str(tmp_path / "no.json"))
        assert code == 1
        assert "error" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 1

    def test_bad_space_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"domain_size": 2, "hypotheses": ["011"]}))
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == 1


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

    def test_lifted_file_feeds_compute(self, tmp_path, capsys):
        src = write_space(tmp_path / "s.json", k_sparse(5, 2))
        dst = tmp_path / "lifted.json"
        assert run_cli(capsys, "lift", "--input", str(src), "--output", str(dst))[0] == 0
        code, out, _ = run_cli(capsys, "compute", "--input", str(dst))
        assert code == 0
        assert json.loads(out)["d"] == 4

    def test_single_element_domain_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "one.json"
        src.write_text(json.dumps({"domain_size": 1, "hypotheses": ["0", "1"]}))
        code, _, err = run_cli(capsys, "lift", "--input", str(src), "--output", str(tmp_path / "o"))
        assert code == 1

    def test_widest_original_domain_feeds_compute(self, tmp_path, capsys):
        # compute reads files up to C(24, 2) columns so that this round-trips
        src = write_space(tmp_path / "s.json", random_space(DOMAIN_SIZE_CAP, 4, 7))
        dst = tmp_path / "lifted.json"
        assert run_cli(capsys, "lift", "--input", str(src), "--output", str(dst))[0] == 0
        assert json.loads(dst.read_text())["domain_size"] == LOAD_DOMAIN_SIZE_CAP
        code, out, err = run_cli(capsys, "compute", "--input", str(dst))
        assert (code, err) == (0, "")
        assert json.loads(out)["d"] == 2

    def test_domain_above_original_cap_writes_no_file(self, tmp_path, capsys):
        src = write_wide_space(tmp_path / "s.json", DOMAIN_SIZE_CAP + 1, 4)
        dst = tmp_path / "lifted.json"
        code, out, err = run_cli(capsys, "lift", "--input", str(src), "--output", str(dst))
        assert (code, out) == (1, "")
        assert err == "vc: error: domain_size 25 exceeds the supported maximum 24\n"
        assert not dst.exists()


@pytest.mark.parametrize(
    "command, cap",
    [("lift", DOMAIN_SIZE_CAP), ("verify", DOMAIN_SIZE_CAP), ("compute", LOAD_DOMAIN_SIZE_CAP)],
)
def test_wide_file_names_the_command_cap(tmp_path, capsys, command, cap):
    # the cap is checked once, before any row is parsed, so the bad row is never read
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({"domain_size": 300, "hypotheses": ["not a row"]}))
    argv = [command, "--input", str(src)]
    if command == "lift":
        argv += ["--output", str(tmp_path / "lifted.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"vc: error: domain_size 300 exceeds the supported maximum {cap}\n"
    assert not (tmp_path / "lifted.json").exists()


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

    def test_input_file(self, tmp_path, capsys, five_halves_space, ratio_three_space):
        cases = ((full_cube(2), "1/2"), (five_halves_space, "5/2"), (ratio_three_space, "3"))
        for space, ratio in cases:
            path = write_space(tmp_path / "s.json", space)
            code, out, _ = run_cli(capsys, "verify", "--input", str(path))
            # a ratio above 2 inside the paper's bracket is a finding, not a failure
            assert code == 0
            doc = json.loads(out)
            assert (doc["family"], doc["ratio"]) == ("file", ratio)

    def test_family_and_input_conflict(self, tmp_path, capsys):
        path = write_space(tmp_path / "s.json", full_cube(2))
        code, _, err = run_cli(
            capsys, "verify", "--family", "cube", "--n", "2", "--input", str(path)
        )
        assert code == 1

    def test_missing_k(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "ksparse", "--n", "5")
        assert code == 1

    def test_cube_rejects_k(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "cube", "--n", "3", "--k", "2")
        assert code == 1
        assert out == ""
        assert err == "vc: error: full_cube does not take k\n"

    def test_input_above_original_cap_is_input_error(self, tmp_path):
        # a 60-column space is a 1770-column lift; a hang fails on the timeout
        path = write_wide_space(tmp_path / "s.json", 60, 16)
        proc = run_module("verify", "--input", str(path), timeout=30)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "vc: error: domain_size 60 exceeds the supported maximum 24\n"

    def test_input_rejects_n_and_k(self, tmp_path, capsys):
        path = write_space(tmp_path / "s.json", full_cube(2))
        code, out, err = run_cli(
            capsys, "verify", "--input", str(path), "--n", "9", "--k", "4"
        )
        assert code == 1
        assert out == ""
        assert err == "vc: error: --input does not take --n\n"


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

    def test_jobs_below_one_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--mode", "exhaustive", "--n", "2", "--jobs", "0"
        )
        assert code == 1
        assert out == ""
        assert "jobs must be at least 1, got 0" in err

    def test_random_samples_below_one_names_samples(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--mode", "random", "--n", "3", "--size", "2", "--samples", "0"
        )
        assert code == 1
        assert out == ""
        assert err == "vc: error: samples must be at least 1, got 0\n"

    def test_seed_outside_64_bits_is_input_error(self, capsys):
        # SplitMix64 would reduce -1 to 2^64-1 and print that seed's result
        code, out, err = run_cli(
            capsys,
            "search", "--mode", "random", "--n", "4", "--size", "5",
            "--samples", "3", "--seed", "-1",
        )
        assert code == 1
        assert out == ""
        assert err == "vc: error: seed must be in 0..2^64-1, got -1\n"

    def test_exhaustive_rejects_random_flags(self, capsys):
        code, out, err = run_cli(
            capsys,
            "search", "--mode", "exhaustive", "--n", "2",
            "--size", "5", "--seed", "9", "--samples", "3",
        )
        assert code == 1
        assert out == ""
        assert err == "vc: error: --mode exhaustive does not take --size\n"

    @pytest.mark.parametrize("n", ["-1", "0", "5"])
    def test_exhaustive_domain_is_input_error(self, capsys, n):
        code, out, err = run_cli(capsys, "search", "--mode", "exhaustive", "--n", n)
        assert code == 1
        assert out == ""
        if n == "5":
            assert "vc: error: exhaustive enumeration caps at n = 4, got 5" in err
        else:
            assert f"vc: error: n must be at least 1, got {n}" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exhaustive_n4_output(self, capsys, jobs):
        # 401 orbit representatives span four pool chunks at jobs 2
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
            capsys, monkeypatch, "simvc.cli.ratio_search",
            "--mode", "random", "--n", "3", "--size", "2", "--samples", "3",
        )


class TestBounds:
    def test_cap(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--cap", "12", "2")
        assert code == 0
        assert json.loads(out) == {"domain_size": 12, "d": 2, "cap": 6}

    @pytest.mark.parametrize(
        "n, d, message",
        [
            ("3", "5", "got n = 3, d = 5"),
            ("3", "-1", "got n = 3, d = -1"),
            ("25", "2", f"--cap N must be in 1..{DOMAIN_SIZE_CAP}, got 25"),
            ("0", "0", f"--cap N must be in 1..{DOMAIN_SIZE_CAP}, got 0"),
        ],
    )
    def test_cap_out_of_range_is_input_error(self, capsys, n, d, message):
        code, out, err = run_cli(capsys, "bounds", "--cap", n, d)
        assert code == 1
        assert out == ""
        assert message in err

    def test_entropy(self, capsys):
        # --entropy is gone; binary_entropy is only the solver's helper
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--entropy", "0.11"])
        assert info.value.code == 1
        assert capsys.readouterr().out == ""

    def test_sauer(self, capsys):
        # --sauer is gone; --cap is the one Sauer–Shelah mode
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--sauer", "6", "4"])
        assert info.value.code == 1
        assert capsys.readouterr().out == ""

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
        # --tol is gone: every tolerance is a usage error
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--solve-delta", "--tol", tol])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --tol {tol}" in captured.err

    def test_no_selector(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds"])
        assert info.value.code == 1
        assert "one of the arguments --cap --solve-delta is required" in (
            capsys.readouterr().err
        )

    def test_two_selectors(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--cap", "3", "2", "--solve-delta"])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


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

    def test_malformed_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"family": "warp", "n": 3}]))
        code, _, err = run_cli(
            capsys, "report", "--spec", str(spec), "--format", "csv",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"family": ["cube"], "n": 2}, "vc: error: unknown family ['cube']\n"),
            ({"family": "cube", "n": 2.9}, "n must be an integer, got 2.9\n"),
            ({"family": "cube", "n": 3, "k": 2, "seed": 5}, "full_cube does not take k\n"),
            ({"family": "ksparse", "n": 3, "k": 1, "size": 4}, "k_sparse does not take size\n"),
            ({"family": "cube", "n": 4, "kk": 2}, "unknown key 'kk'\n"),
            (
                {"family": "random", "n": 4, "size": 3, "seed": 1, "sed": 5},
                "unknown key 'sed'\n",
            ),
        ],
        ids=[
            "unhashable-family", "float-n", "cube-with-k", "ksparse-with-size",
            "cube-misspelt-k", "random-misspelt-seed",
        ],
    )
    def test_bad_spec_entry_is_input_error(self, tmp_path, capsys, entry, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([entry]))
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "report", "--spec", str(spec), "--format", "csv", "--out", str(out)
        )
        assert code == 1
        assert stdout == ""
        assert err.endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_of_range_entry_writes_no_file(self, tmp_path, capsys, jobs):
        # every entry is checked before the output file is opened
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"family": "cube", "n": 2}, {"family": "cube", "n": 99}]))
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "report", "--spec", str(spec), "--format", "csv",
            "--out", str(out), "--jobs", jobs,
        )
        assert code == 1
        assert stdout == ""
        assert err == "vc: error: n must be in 1..24, got 99\n"
        assert not out.exists()

    def test_seed_outside_64_bits_writes_no_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"family": "random", "n": 4, "size": 6, "seed": 2**64}]))
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "report", "--spec", str(spec), "--format", "csv", "--out", str(out)
        )
        assert code == 1
        assert stdout == ""
        assert err == f"vc: error: seed must be in 0..2^64-1, got {2**64}\n"
        assert not out.exists()

    def test_jobs_below_one_is_input_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"family": "cube", "n": 2}]))
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "report", "--spec", str(spec), "--format", "csv",
            "--out", str(out), "--jobs", "0",
        )
        assert code == 1
        assert "jobs must be at least 1, got 0" in err
        assert not out.exists()

    def test_spec_must_be_array(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "cube", "n": 2}))
        code, _, err = run_cli(
            capsys, "report", "--spec", str(spec), "--format", "csv",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compute"])
        assert info.value.code == 1


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
    # only ValueError (SimvcError among them) and OSError are input errors
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
