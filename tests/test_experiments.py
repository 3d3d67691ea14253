"""Bound reports, ratio search, report files."""

import json
import os
from fractions import Fraction

import pytest

from simvc import (
    CSV_COLUMNS,
    FamilySpec,
    enumerate_spaces,
    exhaustive_search,
    forest_cap,
    full_cube,
    k_sparse,
    random_search,
    run_report,
    vc_naive,
    verify_theorem,
)
from simvc.experiments import _max_ratio, _ordered_map

from conftest import (
    FIVE_HALVES_SPACE, RATIO_THREE_SPACE, bit_space, forest_components, random_space_stream,
    ratio_search, run_python,
)


def run_map(body, timeout):
    """Stdout of ``body`` in a child Python with ``os`` and ``_ordered_map`` imported and two
    CPUs, which must leave no child process behind; the check's own line is cut off."""
    code = (
        "import os\n"
        "from simvc.experiments import _ordered_map\n"
        "os.cpu_count = lambda: 2\n"
        f"{body}"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    out = run_python(code, timeout)
    assert out.endswith("no child left\n"), out
    return out.removesuffix("no child left\n")


class TestVerifyTheorem:
    def test_k_sparse_example(self):
        report = verify_theorem(k_sparse(5, 2))
        assert (report.d, report.d_sim) == (2, 4)
        assert report.ratio == Fraction(2)
        assert report.lower_ok and report.upper_ok

    def test_full_cube_example(self):
        report = verify_theorem(full_cube(3))
        assert (report.d, report.d_sim) == (3, 2)
        assert report.ratio == Fraction(2, 3)
        assert report.lower_ok and report.upper_ok

    def test_singleton_space(self):
        report = verify_theorem(bit_space(3, ["010"]))
        assert (report.d, report.d_sim) == (0, 0)
        assert report.ratio is None
        assert report.urner_value is None
        assert report.lower_ok and report.upper_ok

    def test_single_element_domain(self):
        report = verify_theorem(bit_space(1, ["0", "1"]))
        assert (report.d, report.d_sim) == (1, 0)
        assert report.witness_sim == ()
        assert report.lower_ok and report.upper_ok

    def test_witnesses_are_sound(self):
        report = verify_theorem(k_sparse(5, 2))
        assert len(report.witness_base) == report.d
        assert len(report.witness_sim) == report.d_sim
        assert forest_components(report.witness_sim) is not None

    def test_ratio_five_halves(self):
        report = verify_theorem(FIVE_HALVES_SPACE)
        assert (report.d, report.d_sim, report.ratio) == (2, 5, Fraction(5, 2))
        assert report.lower_ok and report.upper_ok
        assert report.witness_base == (0, 1)
        assert report.witness_sim == ((0, 2), (0, 6), (1, 3), (4, 5), (4, 7))
        assert vc_naive(FIVE_HALVES_SPACE) == (2, (0, 1))
        # the lift's definition, h^(s)(w, x) = [h(w) = h(x)], without the engine
        patterns = {
            tuple((h >> w) & 1 == (h >> x) & 1 for w, x in report.witness_sim)
            for h in FIVE_HALVES_SPACE.hypotheses
        }
        assert len(patterns) == 32

    def test_ratio_three_meets_the_forest_cap(self):
        report = verify_theorem(RATIO_THREE_SPACE)
        assert (report.d, report.d_sim, report.ratio) == (2, 6, Fraction(3))
        assert report.lower_ok and report.upper_ok
        pairs = tuple((2 * i, 2 * i + 1) for i in range(6))
        assert report.witness_sim == pairs
        assert vc_naive(RATIO_THREE_SPACE) == (2, (0, 2))
        # the lift's definition, h^(s)(w, x) = [h(w) = h(x)], without the engine
        patterns = {
            tuple((h >> w) & 1 == (h >> x) & 1 for w, x in pairs)
            for h in RATIO_THREE_SPACE.hypotheses
        }
        assert len(patterns) == 64
        # so no space with d = 2 has a ratio above 3
        assert forest_cap(12, 2) == 6

    def test_every_witness_sim_is_forest(self):
        for n in (2, 3):
            for space in enumerate_spaces(n):
                report = verify_theorem(space)
                assert forest_components(report.witness_sim) is not None
                assert report.lower_ok and report.upper_ok

    def test_to_dict_round_trips_through_json(self):
        report = verify_theorem(full_cube(2), family_spec=FamilySpec("full_cube", 2))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["family"] == {"family": "full_cube", "n": 2}
        assert doc["d"] == 2 and doc["d_sim"] == 1 and doc["ratio"] == "1/2"
        assert "wall_time_ms" in doc
        assert "wall_time_ms" not in report.to_dict(include_timing=False)


class TestRatioSearch:
    def test_exhaustive_n2(self):
        # by hand: no pair of pair-columns exists over n=2, so d_sim <= 1;
        # {00, 01} attains d = 1, d_sim = 1
        result = exhaustive_search(2)
        assert result.max_ratio == Fraction(1)
        assert result.spaces_examined == 15
        assert not result.conjecture_violated
        assert result == ratio_search(enumerate_spaces(2))

    def test_full_cube_stream(self):
        result = ratio_search(full_cube(n) for n in range(2, 6))
        assert result.max_ratio == Fraction(4, 5)
        assert result.argmax_space == full_cube(5)

    def test_k_sparse_stream_reaches_two(self):
        stream = [full_cube(2), k_sparse(5, 2), full_cube(3)]
        result = ratio_search(iter(stream))
        assert result.max_ratio == Fraction(2)
        assert result.argmax_space == k_sparse(5, 2)

    def test_ratio_above_two_is_flagged(self, monkeypatch):
        result = ratio_search([FIVE_HALVES_SPACE])
        assert result.max_ratio == Fraction(5, 2)
        assert result.argmax_space == FIVE_HALVES_SPACE
        assert result.conjecture_violated is True
        # no seed is known to draw a ratio above 2, so every row builds the five-halves space
        monkeypatch.setattr("simvc.experiments.space_at", lambda spec, i: FIVE_HALVES_SPACE)
        assert random_search(8, 32, 3, 0) == result._replace(spaces_examined=3)

    def test_jobs_do_not_change_result(self):
        # worker 1's results are read between worker 0's; the argmax must still be the first,
        # and on n = 2 several orbits reach the maximum
        for n in (2, 3):
            serial = ratio_search(enumerate_spaces(n))
            assert serial.argmax_space is not None
            for jobs in (1, 2, 4):
                assert exhaustive_search(n, jobs=jobs) == serial

    def test_random_search_is_ratio_search_over_the_stream(self):
        serial = ratio_search(random_space_stream(5, 8, 40, 31337))
        assert serial.argmax_space is not None
        for jobs in (1, 2, 4):
            assert random_search(5, 8, 40, 31337, jobs=jobs) == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_live_rows_stay_bounded(self, jobs):
        """This process holds a bounded number of rows however long the search is, also when
        it runs one stripe of the jobs and reads the others; rows that count themselves show the
        peak."""
        if jobs > 1 and (os.cpu_count() or 1) < 2:
            pytest.skip("the striped map runs only on two or more CPUs")

        class Row(tuple):
            live = peak = 0

            def __new__(cls, *fields):
                cls.live += 1
                cls.peak = max(cls.peak, cls.live)
                return super().__new__(cls, fields)

            def __del__(self):
                type(self).live -= 1

        spec = FamilySpec("full_cube", 1)
        result = _max_ratio(lambda: (Row(spec, 0, 1) for _ in range(1000)), jobs)
        assert result.spaces_examined == 1000
        assert Row.peak <= 4

    def test_pool_has_at_most_one_worker_per_cpu(self):
        # real forks, counted; a fork past the first fails the test instead of running away
        code = (
            "forks = []\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    forks.append(None)\n"
            "    if len(forks) > 1:\n"
            "        raise OSError('a second worker was forked')\n"
            "    return real_fork()\n"
            "os.fork = fork\n"
            "pids = list(_ordered_map(lambda _: os.getpid(), range(20), 10**6))\n"
            # this process runs items 0, 2, ... and the one worker items 1, 3, ...
            "print(len(forks), len(set(pids)), pids[0] == os.getpid(), pids == pids[:2] * 10)\n"
            "for cpus in (None, 1):\n"
            "    os.cpu_count = lambda: cpus\n"
            "    own = list(_ordered_map(lambda _: os.getpid(), range(5), 3))\n"
            "    print(own == [os.getpid()] * 5)\n"
            "print(len(forks))\n"
        )
        assert run_map(code, timeout=60) == "1 2 True True\nTrue\nTrue\n1\n"

    @pytest.mark.parametrize("where", ["job", "stream"])
    def test_error_is_raised_at_its_place(self, where):
        # the results before it come first, in order, as from the built-in map; at two jobs
        # item 7 is the worker's, and its error reaches this process as it is, not pickled
        code = (
            "import sys\n"
            f"where = {where!r}\n"
            "def job(i):\n"
            "    if where == 'job' and i == 7:\n"
            "        raise KeyError(i)\n"
            "    return i\n"
            "def stream():\n"
            "    for i in range(10):\n"
            "        if where == 'stream' and i == 7:\n"
            "            raise KeyError(i)\n"
            "        yield i\n"
            "for jobs in (1, 2):\n"
            "    results = _ordered_map(job, stream(), jobs)\n"
            "    print([next(results) for _ in range(7)])\n"
            "    try:\n"
            "        next(results)\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc.args)\n"
            "print('pickle' in sys.modules)\n"
        )
        expected = "[0, 1, 2, 3, 4, 5, 6]\nKeyError (7,)\n" * 2 + "False\n"
        assert run_map(code, timeout=60) == expected

    def test_unmarshallable_result_is_raised_at_its_place(self):
        # results cross as marshal data; a Fraction cannot, so its job fails there
        code = (
            "from fractions import Fraction\n"
            "results = _ordered_map(lambda i: Fraction(i) if i == 7 else i, range(10), 2)\n"
            "print([next(results) for _ in range(7)])\n"
            "try:\n"
            "    next(results)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        expected = "[0, 1, 2, 3, 4, 5, 6]\nunmarshallable object\n"
        assert run_map(code, timeout=60) == expected

    def test_successful_map_imports_neither_pickle_nor_signal(self):
        # only an error is pickled, and only a worker still running is killed
        code = (
            "import sys\n"
            "from simvc import FamilySpec, exhaustive_search, run_report\n"
            "specs = [FamilySpec('exhaustive', 3), FamilySpec('k_sparse', 5, k=2)]\n"
            "print(run_report(specs, 'csv', os.devnull, jobs=2))\n"
            "print(exhaustive_search(3, jobs=2).spaces_examined)\n"
            "print(sorted({'pickle', 'signal'} & set(sys.modules)))\n"
        )
        assert run_map(code, timeout=60) == "256\n255\n[]\n"

    def test_failed_fork_leaves_no_pipe_or_worker(self):
        # three CPUs make two workers, and the second fork fails: the first worker is reaped
        # and both pipes are closed, so the next pipe gets the same descriptors as one made
        # before the map
        code = (
            "os.cpu_count = lambda: 3\n"
            "forks = []\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    forks.append(None)\n"
            "    if len(forks) == 2:\n"
            "        raise OSError('no second worker')\n"
            "    return real_fork()\n"
            "os.fork = fork\n"
            "before = os.pipe()\n"
            "for fd in before:\n"
            "    os.close(fd)\n"
            "try:\n"
            "    list(_ordered_map(abs, range(10), 3))\n"
            "except OSError as exc:\n"
            "    print(exc)\n"
            "print(os.pipe() == before)\n"
        )
        assert run_map(code, timeout=60) == "no second worker\nTrue\n"

    def test_dead_worker_fails_the_map(self):
        # a worker killed mid-stream (the OOM killer, say) must not hang the map, and no
        # worker may outlive it; the timeout fails the test on a hang.  The job kills only a
        # worker, as an outside kill would, so item 301 runs when this process runs it again
        code = (
            "import re, signal\n"
            "main = os.getpid()\n"
            "def job(i):\n"
            "    if i == 301 and os.getpid() != main:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return i\n"
            "try:\n"
            "    list(_ordered_map(job, range(1000), 2))\n"
            "except RuntimeError as exc:\n"
            "    print(re.sub(r'\\d+', 'N', str(exc)))\n"
        )
        expected = "worker N exited before sending all its results\n"
        assert run_map(code, timeout=20) == expected

    def test_pooled_map_reads_its_input_lazily(self):
        # an endless input: a map that reads it whole hangs, and the timeout fails the test;
        # closing the map early must end its workers
        code = (
            "from itertools import count, islice\n"
            "from operator import neg\n"
            "results = _ordered_map(neg, count(), 2)\n"
            "print(list(islice(results, 5)))\n"
            "results.close()\n"
        )
        assert run_map(code, timeout=60) == "[0, -1, -2, -3, -4]\n"

    def test_result_dict_shape(self):
        doc = exhaustive_search(2).to_dict()
        assert set(doc) == {
            "max_ratio",
            "argmax_space",
            "spaces_examined",
            "conjecture_violated",
        }


class TestRunReport:
    def test_csv_columns_and_values(self, tmp_path):
        out = tmp_path / "report.csv"
        rows = run_report([FamilySpec("k_sparse", 5, k=2)], "csv", out)
        assert rows == 1
        header, row = out.read_text().strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        fields = row.split(",")
        assert fields[: len(CSV_COLUMNS) - 1] == [
            "k_sparse",
            "5",
            "2",
            "",
            "",
            "2",
            "4",
            "2",
            "true",
            "true",
            "8.0",
        ]

    def test_empty_specs_give_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run_report([], "csv", out) == 0
        assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_two_cubes_jsonl(self, tmp_path):
        out = tmp_path / "cubes.jsonl"
        rows = run_report(
            [FamilySpec("full_cube", 2), FamilySpec("full_cube", 3)], "jsonl", out
        )
        assert rows == 2
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [d["d_sim"] for d in docs] == [1, 2]

    def test_exhaustive_spec_expands(self, tmp_path):
        out = tmp_path / "all2.jsonl"
        assert run_report([FamilySpec("exhaustive", 2)], "jsonl", out) == 15

    def test_timing_column_is_optional_and_rest_deterministic(self, tmp_path):
        specs = [FamilySpec("exhaustive", 2), FamilySpec("k_sparse", 4, k=1)]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_report(specs, "csv", a, include_timing=False)
        run_report(specs, "csv", b, jobs=3, include_timing=False)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == ",".join(CSV_COLUMNS[:-1])

    def test_stream_order_preserved(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_report([FamilySpec("full_cube", 2), FamilySpec("k_sparse", 3, k=1)], "jsonl", out)
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(d["d"], d["d_sim"]) for d in docs] == [(2, 1), (1, 2)]

    def test_parallel_matches_serial(self, tmp_path):
        # one row each, then the 255 of exhaustive n = 3, striped over two and over
        # four workers where there are that many CPUs
        specs = [
            FamilySpec("k_sparse", 7, k=2), FamilySpec("full_cube", 4),
            FamilySpec("random", 6, size=20, seed=1), FamilySpec("exhaustive", 3),
        ]
        for fmt in ("csv", "jsonl"):
            serial = tmp_path / f"serial.{fmt}"
            assert run_report(specs, fmt, serial, include_timing=False) == 258
            # the CSV header is one more line
            assert len(serial.read_text().splitlines()) == 258 + (fmt == "csv")
            for jobs in (2, 4):
                parallel = tmp_path / f"parallel{jobs}.{fmt}"
                run_report(specs, fmt, parallel, jobs=jobs, include_timing=False)
                assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_parallel_rows_carry_timing(self, tmp_path, fmt):
        # the workers render the rows, so the flag must reach them
        out = tmp_path / f"timed.{fmt}"
        specs = [FamilySpec("exhaustive", 2), FamilySpec("k_sparse", 4, k=1)]
        assert run_report(specs, fmt, out, jobs=2, include_timing=True) == 16
        lines = out.read_text().splitlines()
        if fmt == "csv":
            assert lines[0] == ",".join(CSV_COLUMNS)
            for line in lines[1:]:
                fields = line.split(",")
                assert len(fields) == len(CSV_COLUMNS)
                assert fields[-1].isdigit()
        else:
            assert len(lines) == 16
            for line in lines:
                assert type(json.loads(line)["wall_time_ms"]) is int

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_worker_fault_fails_the_report(self, tmp_path, monkeypatch, fmt):
        # the forked workers inherit the patch; d = 1 on n = 3 caps d_sim at 2
        monkeypatch.setattr("simvc.experiments.lifted_vc", lambda space: (9, ()))
        with pytest.raises(AssertionError, match="d_sim = 9 exceeds forest_cap = 2 at d = 1"):
            run_report([FamilySpec("k_sparse", 3, k=1)], fmt, tmp_path / f"x.{fmt}", jobs=2)
