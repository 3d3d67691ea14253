"""Every library input error: a zero-argument call and the whole message it must raise.

A generator checked at the call is called, never advanced.  ``vc``'s own errors are in test_cli.py.
"""

import inspect
import os
import traceback
from pathlib import Path

import pytest

import simvc
from simvc import (
    FamilySpec, HypothesisSpace, enumerate_spaces,
    exhaustive_search, forest_cap, full_cube, is_shattered, k_sparse, lift_hypothesis, lift_space,
    pair_domain, random_space, run_report, space_from_dict, theorem_bounds, vc_naive,
)
from simvc.bounds import binary_entropy, urner_bound
from simvc.families import random_space_seeds, space_at
from simvc.space import check_int, check_range, restrict

from conftest import bit_space


def entry(doc, message):
    """The row of a spec-file entry ``doc`` that ``FamilySpec.from_dict`` rejects."""
    return lambda: FamilySpec.from_dict(doc), message


def malformed(doc, detail):
    """The row of a spec-file entry ``doc`` whose keys ``FamilySpec.from_dict`` rejects."""
    return entry(doc, f"malformed family spec {doc!r}: {detail}")


#: id -> (a call that must raise ValueError, the whole message)
VALUE_ERRORS = {
    "space-domain--1": (lambda: HypothesisSpace(-1, [0]),
                        "domain_size must be at least 0, got -1"),
    # space_to_dict would write "domain_size": true, which space_from_dict refuses
    "space-domain-True": (lambda: HypothesisSpace(True, [0, 1]),
                          "domain_size must be an integer, got True"),
    "space-row-4-on-2": (lambda: HypothesisSpace(2, (0b00, 0b100)),
                         "hypothesis 4 does not fit a space over 2 elements"),
    "space-row--1-on-2": (lambda: HypothesisSpace(2, (-1, 0)),
                          "hypothesis -1 does not fit a space over 2 elements"),
    # 1.0 == 1 would pass the range check and fail later, in the engine's bit operations
    "space-row-1.0": (lambda: HypothesisSpace(3, [1.0, 2]),
                      "hypothesis must be an integer, got 1.0"),
    "file-no-rows": (lambda: bit_space(3, []),
                     "a hypothesis space must contain at least one hypothesis"),
    "file-list": (lambda: space_from_dict([]), "space document must be a JSON object"),
    "file-no-hypotheses": (lambda: space_from_dict({"domain_size": 2}),
                           "space document is missing key 'hypotheses'"),
    "file-string-domain": (lambda: bit_space("2", ["01"]),
                           "domain_size must be an integer, got '2'"),
    "file-string-rows": (lambda: space_from_dict({"domain_size": 2, "hypotheses": "01"}),
                         "hypotheses must be a list of bit strings"),
    "file-domain-0": (lambda: bit_space(0, [""]), "domain_size must be in 1..276, got 0"),
    "file-domain-25": (lambda: space_from_dict({"domain_size": 25, "hypotheses": ["0" * 25]}, 24),
                       "domain_size must be in 1..24, got 25"),
    "file-long-row": (lambda: bit_space(2, ["011"]), "hypothesis '011' has length 3, expected 2"),
    # int(row, 2) parses every row here but "0x"; only the 0/1 check rejects them
    "file-bit-x": (lambda: bit_space(2, ["0x"]), "invalid bit character 'x' in '0x'"),
    "file-bit-underscore": (lambda: bit_space(3, ["0_1"]), "invalid bit character '_' in '0_1'"),
    "file-bit-plus": (lambda: bit_space(2, ["+1"]), "invalid bit character '+' in '+1'"),
    "file-bit-blank": (lambda: bit_space(2, [" 1"]), "invalid bit character ' ' in ' 1'"),
    "file-bit-arabic-one": (lambda: bit_space(1, ["\u0661"]),
                            "invalid bit character '\u0661' in '\u0661'"),
    "restrict-index-2-on-2": (lambda: restrict(full_cube(2), (2,)),
                              "domain index must be in 0..1, got 2"),
    "shattered-index-2-on-2": (lambda: is_shattered(full_cube(2), (2,)),
                               "domain index must be in 0..1, got 2"),
    # True == 1 would restrict to element 1, and 1 << 0.0 would raise TypeError
    "restrict-index-True": (lambda: restrict(full_cube(2), (True,)),
                            "domain index must be an integer, got True"),
    "shattered-index-0.0": (lambda: is_shattered(full_cube(2), (0.0,)),
                            "domain index must be an integer, got 0.0"),
    "restrict-index-0-on-0": (lambda: restrict(HypothesisSpace(0, [0]), (0,)),
                              "domain index must be in the empty domain, got 0"),
    # the mask of (0, 0) is 0b10, element 1's, so the subset is checked before any count
    "shattered-repeated-index": (lambda: is_shattered(full_cube(2), (0, 0)),
                                 "subset elements must be strictly increasing"),
    # the generators
    "ksparse-k-4-on-3": (lambda: k_sparse(3, 4), "k must be in 0..3, got 4"),
    "ksparse-k--1": (lambda: k_sparse(3, -1), "k must be in 0..3, got -1"),
    "ksparse-k-1.0": (lambda: k_sparse(3, 1.0), "k must be an integer, got 1.0"),
    "ksparse-n-0": (lambda: k_sparse(0, 0), "n must be in 1..24, got 0"),
    "cube-n-0": (lambda: full_cube(0), "n must be in 1..24, got 0"),
    "cube-n-25": (lambda: full_cube(25), "n must be in 1..24, got 25"),
    "cube-n-2.0": (lambda: full_cube(2.0), "n must be an integer, got 2.0"),
    "random-size-9-on-3": (lambda: random_space(3, 9, 0), "size must be in 1..2^3, got 9"),
    "random-size-0": (lambda: random_space(3, 0, 0), "size must be in 1..2^3, got 0"),
    "random-size-2.0": (lambda: random_space(3, 2.0, 1), "size must be an integer, got 2.0"),
    # SplitMix64 reduces its seed mod 2^64, so these would alias seeds 2^64-1 and 0
    "random-seed--1": (lambda: random_space(3, 2, -1), "seed must be in 0..2^64-1, got -1"),
    "random-seed-2^64": (lambda: random_space(3, 2, 2**64),
                         f"seed must be in 0..2^64-1, got {2**64}"),
    "stream-seed--1": (lambda: random_space_seeds(3, 2, 1, -1),
                       "seed must be in 0..2^64-1, got -1"),
    "stream-seed-2^64": (lambda: random_space_seeds(3, 2, 1, 2**64),
                         f"seed must be in 0..2^64-1, got {2**64}"),
    "stream-samples-0": (lambda: random_space_seeds(3, 2, 0, 1),
                         "samples must be at least 1, got 0"),
    # islice would refuse 2.5 too, but with its own message
    "stream-samples-2.5": (lambda: random_space_seeds(3, 2, 2.5, 1),
                           "samples must be an integer, got 2.5"),
    "stream-size-9": (lambda: random_space_seeds(3, 9, 5, 1), "size must be in 1..2^3, got 9"),
    # index 16 on n = 2 would build space 0, -2 the full cube and 15 an empty space
    "space_at-exhaustive-15-on-2": (lambda: space_at(FamilySpec("exhaustive", 2), 15),
                                    "i must be in 0..14, got 15"),
    "space_at-exhaustive--1-on-2": (lambda: space_at(FamilySpec("exhaustive", 2), -1),
                                    "i must be in 0..14, got -1"),
    "space_at-full_cube-1": (lambda: space_at(FamilySpec("full_cube", 2), 1),
                             "i must be in 0..0, got 1"),
    "space_at-True": (lambda: space_at(FamilySpec("exhaustive", 2), True),
                      "i must be an integer, got True"),
    "enumerate-n-0": (lambda: enumerate_spaces(0), "n must be in 1..4, got 0"),
    "enumerate-n-5": (lambda: enumerate_spaces(5), "n must be in 1..4, got 5"),
    # a spec runs the generators' checks, so it fails before any space is built
    "spec-unknown-family": (lambda: FamilySpec("nope", 3), "unknown family 'nope'"),
    "spec-k_sparse-without-k": (lambda: FamilySpec("k_sparse", 5), "k_sparse requires k"),
    "spec-full_cube-n-99": (lambda: FamilySpec("full_cube", 99), "n must be in 1..24, got 99"),
    "spec-random-n-0": (lambda: FamilySpec("random", 0, size=1, seed=0),
                        "n must be in 1..24, got 0"),
    "spec-k_sparse-k-4-on-3": (lambda: FamilySpec("k_sparse", 3, k=4), "k must be in 0..3, got 4"),
    "spec-random-size-5-on-2": (lambda: FamilySpec("random", 2, size=5, seed=0),
                                "size must be in 1..2^2, got 5"),
    "spec-random-seed--1": (lambda: FamilySpec("random", 3, size=2, seed=-1),
                            "seed must be in 0..2^64-1, got -1"),
    "spec-random-seed-2^64": (lambda: FamilySpec("random", 3, size=2, seed=2**64),
                              f"seed must be in 0..2^64-1, got {2**64}"),
    "spec-random-seed-1.5": (lambda: FamilySpec("random", 3, size=2, seed=1.5),
                             "seed must be an integer, got 1.5"),
    "spec-exhaustive-n-5": (lambda: FamilySpec("exhaustive", 5), "n must be in 1..4, got 5"),
    "spec-exhaustive-n-0": (lambda: FamilySpec("exhaustive", 0), "n must be in 1..4, got 0"),
    # each kind takes only its own parameters
    "spec-full_cube-with-k": (lambda: FamilySpec("full_cube", 3, k=2, seed=5),
                              "full_cube does not take k"),
    "spec-k_sparse-with-size": (lambda: FamilySpec("k_sparse", 3, k=1, size=4),
                                "k_sparse does not take size"),
    "spec-random-with-k": (lambda: FamilySpec("random", 3, k=1, size=2, seed=0),
                           "random does not take k"),
    "spec-exhaustive-with-seed": (lambda: FamilySpec("exhaustive", 2, seed=0),
                                  "exhaustive does not take seed"),
    # spec-file entries
    "entry-int": entry(3, "family spec must be an object, got 3"),
    "entry-unknown-family": entry({"family": "nope", "n": 3}, "unknown family 'nope'"),
    "entry-list-family": entry({"family": ["cube"], "n": 2}, "unknown family ['cube']"),
    "entry-family-{}": entry({"family": {}, "n": 2}, "unknown family {}"),
    "entry-without-n": entry({"family": "cube"}, "family spec requires n"),
    # a parameter check inside the spec keeps its own message
    "entry-random-no-seed": entry({"family": "random", "n": 3, "size": 2},
                                  "random requires size and seed"),
    # a misspelt or undocumented key is an error, not ignored
    "entry-key-kk": malformed({"family": "cube", "n": 4, "kk": 2}, "unknown key 'kk'"),
    "entry-key-sed": malformed({"family": "random", "n": 4, "size": 3, "seed": 1, "sed": 5},
                               "unknown key 'sed'"),
    "entry-key-kind": malformed({"kind": "cube", "n": 4}, "unknown key 'kind'"),
    # no coercion: floats, booleans and strings (even "3") are not integers
    "entry-n-three": entry({"family": "cube", "n": "three"}, "n must be an integer, got 'three'"),
    "entry-n-2.9": entry({"family": "cube", "n": 2.9}, "n must be an integer, got 2.9"),
    "entry-n-2.0": entry({"family": "cube", "n": 2.0}, "n must be an integer, got 2.0"),
    "entry-n-True": entry({"family": "cube", "n": True}, "n must be an integer, got True"),
    "entry-n-string-3": entry({"family": "cube", "n": "3"}, "n must be an integer, got '3'"),
    "entry-n-None": entry({"family": "cube", "n": None}, "n must be an integer, got None"),
    "entry-k-1.5": entry({"family": "ksparse", "n": 4, "k": 1.5}, "k must be an integer, got 1.5"),
    "entry-size-1.5": entry({"family": "random", "n": 4, "size": 1.5, "seed": 5},
                            "size must be an integer, got 1.5"),
    "entry-seed-1.5": entry({"family": "random", "n": 4, "size": 3, "seed": 1.5},
                            "seed must be an integer, got 1.5"),
    "entry-k-False": entry({"family": "ksparse", "n": 3, "k": False},
                           "k must be an integer, got False"),
    "naive-domain-21": (lambda: vc_naive(bit_space(21, ["0" * 21, "1" * 21])),
                        "domain_size must be in 0..20, got 21"),
    "forest_cap-d-4-on-3": (lambda: forest_cap(3, 4), "d must be in 0..3, got 4"),
    "forest_cap-d--1": (lambda: forest_cap(3, -1), "d must be in 0..3, got -1"),
    "forest_cap-n-0": (lambda: forest_cap(0, 0), "n must be at least 1, got 0"),
    # its cache would take 3.0 for the key 3 and return forest_cap(3, 1) = 2
    "forest_cap-n-3.0": (lambda: forest_cap(3.0, 1), "n must be an integer, got 3.0"),
    "forest_cap-d-1.0": (lambda: forest_cap(3, 1.0), "d must be an integer, got 1.0"),
    "entropy--0.1": (lambda: binary_entropy(-0.1), "entropy argument -0.1 outside [0, 1]"),
    "entropy-1.1": (lambda: binary_entropy(1.1), "entropy argument 1.1 outside [0, 1]"),
    "bracket-d--1": (lambda: theorem_bounds(-1), "d must be at least 0, got -1"),
    # 91 * 1.5 // 20 would give the float bracket (0.5, 6.0)
    "bracket-d-1.5": (lambda: theorem_bounds(1.5), "d must be an integer, got 1.5"),
    "urner-d-0": (lambda: urner_bound(0), "d must be at least 1, got 0"),
    "pairs-n--1": (lambda: pair_domain(-1), "n must be at least 0, got -1"),
    # range(2.0) would raise TypeError
    "pairs-n-2.0": (lambda: pair_domain(2.0), "n must be an integer, got 2.0"),
    "lift-row-8-on-3": (lambda: lift_hypothesis(8, 3),
                        "hypothesis 8 does not fit a domain of 3 elements"),
    "lift-row-True": (lambda: lift_hypothesis(True, 2), "hypothesis must be an integer, got True"),
    "lift-n-2.0": (lambda: lift_hypothesis(0, 2.0), "n must be an integer, got 2.0"),
    # 1 << -1 would raise its own ValueError
    "lift-n--1": (lambda: lift_hypothesis(0, -1), "n must be at least 0, got -1"),
    "lift-space-one-element": (lambda: lift_space(bit_space(1, ["0", "1"])),
                               "cannot lift a space over 1 element(s): the pair domain is empty"
                               " (treat the lifted VC dimension as 0)"),
    # checked before any worker starts or any file is opened
    "search-n--1": (lambda: exhaustive_search(-1), "n must be in 1..4, got -1"),
    "search-n-5-jobs-2": (lambda: exhaustive_search(5, jobs=2), "n must be in 1..4, got 5"),
    "search-jobs-0": (lambda: exhaustive_search(2, jobs=0), "jobs must be at least 1, got 0"),
    "search-jobs-True": (lambda: exhaustive_search(2, jobs=True),
                         "jobs must be an integer, got True"),
    "report-xml": (lambda: run_report([], "xml", os.devnull), "unknown report format 'xml'"),
}


@pytest.mark.parametrize("call, message", list(VALUE_ERRORS.values()), ids=list(VALUE_ERRORS))
def test_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_every_library_check_has_a_row():
    # a site is a raise or a call of a checker; a checker's own lines are not sites, and an
    # error raised in a checker is credited to the innermost frame outside the checkers
    checkers = [inspect.getsourcelines(check) for check in (check_int, check_range)]
    inside = {n for lines, start in checkers for n in range(start, start + len(lines))}
    sites = {
        (path.name, number) for path in Path(simvc.__file__).parent.glob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if path.name != "cli.py" and not (path.name == "space.py" and number in inside)
        and any(call in line for call in ("raise ValueError(", "check_int(", "check_range("))
    }
    reached = set()
    for call, _ in VALUE_ERRORS.values():
        try:
            call()
        except ValueError as exc:
            frame = next(f for f in reversed(traceback.extract_tb(exc.__traceback__))
                         if f.name not in ("check_int", "check_range"))
            # a raise spread over several lines may report a later one of them
            below = [s for s in sites if s[0] == Path(frame.filename).name and s[1] <= frame.lineno]
            reached.add(max(below, default=(frame.filename, frame.lineno)))
    assert reached == sites
