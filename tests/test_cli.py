"""The `vc` command-line surface: flags, files, exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from simvc import RatioSearchResult, binary_entropy, full_cube, k_sparse, space_to_dict
from simvc.cli import main


def write_space(path, space, **extra):
    doc = space_to_dict(space, **extra)
    path.write_text(json.dumps(doc))
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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=None):
    """``python -m simvc`` in a child process, importing simvc from this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "simvc", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
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
        assert sorted(doc["hypotheses"]) == ["001", "010", "100", "111"]

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
        path = write_space(tmp_path / "s.json", full_cube(2))
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0
        assert json.loads(out)["family"] == "file"

    def test_family_and_input_conflict(self, tmp_path, capsys):
        path = write_space(tmp_path / "s.json", full_cube(2))
        code, _, err = run_cli(
            capsys, "verify", "--family", "cube", "--n", "2", "--input", str(path)
        )
        assert code == 1

    def test_missing_k(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "ksparse", "--n", "5")
        assert code == 1


class TestSearch:
    def test_exhaustive_n2(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--mode", "exhaustive", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_ratio"] == "1"
        assert doc["spaces_examined"] == 15
        assert doc["conjecture_violated"] is False

    def test_random_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", "--mode", "random", "--n", "4", "--size", "6",
            "--samples", "25", "--seed", "11", "--jobs", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["spaces_examined"] == 25
        assert doc["argmax_space"] is not None

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
    def test_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--entropy", "0.11")
        assert code == 0
        doc = json.loads(out)
        assert doc["binary_entropy"] == pytest.approx(0.49992, abs=1e-4)

    def test_sauer(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--sauer", "6", "4")
        assert code == 0
        assert json.loads(out)["guaranteed_vc"] == 2

    def test_solve_delta(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--solve-delta", "--tol", "1e-10")
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon"] == pytest.approx(0.110028, abs=1e-5)
        assert 4.54 < doc["delta"] < 4.55

    def test_solve_delta_stops_at_adjacent_floats(self):
        # far below the float spacing near eps*; the bisection must still end
        proc = run_module("bounds", "--solve-delta", "--tol", "1e-300", timeout=60)
        assert proc.returncode == 0
        eps = json.loads(proc.stdout)["epsilon"]
        assert binary_entropy(eps) < 0.5 <= binary_entropy(math.nextafter(eps, 1))

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_solve_delta_non_finite_tolerance_is_input_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "bounds", "--solve-delta", "--tol", tol)
        assert code == 1
        assert out == ""
        assert f"tolerance must be positive and finite, got {tol}" in err

    def test_no_selector(self, capsys):
        code, _, err = run_cli(capsys, "bounds")
        assert code == 1

    def test_entropy_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--entropy", "1.5")
        assert code == 1


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
        ],
        ids=["unhashable-family", "float-n"],
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


def test_module_entry_point(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(space_to_dict(full_cube(2))))
    proc = run_module("compute", "--input", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 2
