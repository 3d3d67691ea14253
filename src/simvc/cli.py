"""Command-line surface (the ``vc`` tool).

Exit codes: 0 success; 1 usage or input error (a flag the chosen mode
does not use included); 2 a finding: ``vc verify`` saw a side of the
paper's bracket fail, or ``vc search`` found a ratio above 2, which is a
result, not a fault (one space on n = 12 reaches 3) -- output is preserved
before the nonzero exit so the space is never lost; 141 stdout closed
before the output was written (the status a shell gives a command killed by
SIGPIPE), with nothing written to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .bounds import binary_entropy, forest_cap, solve_optimal_delta
from .engine import vc_exact, vc_naive
from .experiments import exhaustive_search, random_search, run_report, verify_theorem
from .families import FamilySpec, space_at
from .similarity import lift_space
from .space import (
    DOMAIN_SIZE_CAP,
    LOAD_DOMAIN_SIZE_CAP,
    restrict,
    space_from_dict,
    space_to_dict,
)


#: Defaults of the flags only one mode uses; None on the parser means "not given".
_SAMPLES = 10_000
_SEED = 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for findings, so usage errors must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_space(path: str, cap: int):
    """Read a space file; a domain above ``cap`` is an input error.

    ``compute`` reads lifted files, up to ``LOAD_DOMAIN_SIZE_CAP`` columns;
    ``lift`` and ``verify`` lift what they read, so they take original
    domains only, up to ``DOMAIN_SIZE_CAP``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_dict(json.load(fh), cap)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_compute(args) -> int:
    space = _load_space(args.input, LOAD_DOMAIN_SIZE_CAP)
    d, subset = (vc_naive if args.naive else vc_exact)(space)
    patterns = restrict(space, subset).bit_strings()
    _emit({"d": d, "witness": {"subset": list(subset), "patterns": patterns}})
    return 0


def _cmd_lift(args) -> int:
    space = _load_space(args.input, DOMAIN_SIZE_CAP)
    lifted = lift_space(space)
    doc = space_to_dict(lifted, pair_domain_of=space.domain_size)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _reject_unused(mode: str, **flags) -> None:
    """Input error naming the first flag given that ``mode`` does not use."""
    for name, value in flags.items():
        if value is not None:
            raise ValueError(f"{mode} does not take --{name}")


def _build_verify_target(args):
    if args.input is not None:
        if args.family is not None:
            raise ValueError("--input and --family are mutually exclusive")
        _reject_unused("--input", n=args.n, k=args.k)
        return "file", _load_space(args.input, DOMAIN_SIZE_CAP)
    if args.family is None:
        raise ValueError("choose --family ksparse|cube or --input FILE")
    if args.n is None:
        raise ValueError(f"--family {args.family} requires --n")
    # FamilySpec knows which parameters each family takes
    spec = FamilySpec.from_dict({"family": args.family, "n": args.n, "k": args.k})
    return spec, space_at(spec, 0)


def _cmd_verify(args) -> int:
    spec, space = _build_verify_target(args)
    report = verify_theorem(space, family_spec=spec)
    _emit(report.to_dict())
    return 0 if report.lower_ok and report.upper_ok else 2


def _cmd_search(args) -> int:
    if args.mode == "exhaustive":
        if args.n is None:
            raise ValueError("--mode exhaustive requires --n")
        _reject_unused(
            "--mode exhaustive", size=args.size, samples=args.samples, seed=args.seed
        )
        result = exhaustive_search(args.n, jobs=args.jobs)
    else:
        if args.n is None or args.size is None:
            raise ValueError("--mode random requires --n and --size")
        samples = _SAMPLES if args.samples is None else args.samples
        seed = _SEED if args.seed is None else args.seed
        result = random_search(args.n, args.size, samples, seed, jobs=args.jobs)
    _emit(result.to_dict())
    return 2 if result.conjecture_violated else 0


def _cmd_bounds(args) -> int:
    if args.cap is None and not args.solve_delta:
        # checked here, not by a required group, so that argparse reports an
        # unknown flag before a missing mode
        args.usage_error("one of the arguments --cap --solve-delta is required")
    if args.cap is not None:
        n, d = args.cap
        if not 1 <= n <= DOMAIN_SIZE_CAP:
            raise ValueError(f"--cap N must be in 1..{DOMAIN_SIZE_CAP}, got {n}")
        if not 0 <= d <= n:
            raise ValueError(f"--cap D must be in 0..{n}, got {d}")
        _emit({"domain_size": n, "d": d, "cap": forest_cap(n, d)})
        return 0
    epsilon, delta = solve_optimal_delta()
    _emit({"epsilon": epsilon, "delta": delta, "entropy_at_epsilon": binary_entropy(epsilon)})
    return 0


def _cmd_report(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("report spec file must contain a JSON array of family specs")
    specs = []
    for i, entry in enumerate(doc, 1):
        try:
            specs.append(FamilySpec.from_dict(entry))
        except ValueError as exc:
            raise ValueError(f"spec entry {i}: {exc}") from None
    rows = run_report(
        specs, args.format, args.out, jobs=args.jobs, include_timing=not args.no_timing
    )
    _emit({"rows": rows, "out": args.out})
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The ``vc`` parser, built on the first call and shared by every later one.

    ``main`` parses every command line of the process with this one object, so
    parsing must not change it: each ``parse_args`` returns a fresh namespace,
    and the ``func`` defaults are module functions, which read the module's
    globals when they run.
    """
    parser = _Parser(prog="vc", description="similarity VC-dimension toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact (or naive oracle) VC dimension of a space file")
    p.add_argument("--input", required=True)
    p.add_argument("--naive", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("lift", help="write the similarity lift of a space file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("verify", help="bound report for one space")
    p.add_argument("--family", choices=["ksparse", "cube"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--input")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="max-ratio search over a space stream")
    p.add_argument("--mode", choices=["exhaustive", "random"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--samples", type=int, help=f"random mode only (default {_SAMPLES})")
    p.add_argument("--seed", type=int, help=f"random mode only (default {_SEED})")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="closed-form bound values")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--cap", type=int, nargs=2, metavar=("N", "D"))
    mode.add_argument("--solve-delta", action="store_true")
    p.set_defaults(func=_cmd_bounds, usage_error=p.error)

    p = sub.add_parser("report", help="bound reports for a spec file of families")
    p.add_argument("--spec", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush here, so a closed stdout fails inside this try and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; point stdout at /dev/null so the
        # interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"vc: error: {exc}\n")
        return 1
