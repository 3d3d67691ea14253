"""Command-line surface (the ``vc`` tool).

Exit codes: 0 success; 1 usage or input error; 2 internal invariant breach
(a bound violated or a ratio above 2 -- output is preserved before the
nonzero exit so a counterexample is never lost).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bounds import binary_entropy, sauer_guaranteed_vc, solve_optimal_delta
from .engine import vc_exact, vc_naive
from .experiments import exhaustive_search, ratio_search, run_report, verify_theorem
from .families import FamilySpec, random_space_stream, spaces_for
from .similarity import lift_space
from .space import restrict, space_from_dict, space_to_dict


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for invariant breaches, so usage errors must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_space(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_dict(json.load(fh))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_compute(args) -> int:
    space = _load_space(args.input)
    if args.naive:
        _emit({"d": vc_naive(space), "witness": None})
        return 0
    d, subset = vc_exact(space)
    patterns = restrict(space, subset).bit_strings()
    _emit({"d": d, "witness": {"subset": list(subset), "patterns": patterns}})
    return 0


def _cmd_lift(args) -> int:
    space = _load_space(args.input)
    lifted = lift_space(space)
    doc = space_to_dict(lifted, pair_domain_of=space.domain_size)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _build_verify_target(args):
    if args.input is not None:
        if args.family is not None:
            raise ValueError("--input and --family are mutually exclusive")
        return "file", _load_space(args.input)
    if args.family == "ksparse":
        if args.n is None or args.k is None:
            raise ValueError("--family ksparse requires --n and --k")
        spec = FamilySpec("k_sparse", args.n, k=args.k)
    elif args.family == "cube":
        if args.n is None:
            raise ValueError("--family cube requires --n")
        spec = FamilySpec("full_cube", args.n)
    else:
        raise ValueError("choose --family ksparse|cube or --input FILE")
    return spec, next(spaces_for(spec))


def _cmd_verify(args) -> int:
    spec, space = _build_verify_target(args)
    report = verify_theorem(space, family_spec=spec)
    _emit(report.to_dict())
    return 0 if report.lower_ok and report.upper_ok else 2


def _cmd_search(args) -> int:
    if args.mode == "exhaustive":
        if args.n is None:
            raise ValueError("--mode exhaustive requires --n")
        result = exhaustive_search(args.n, jobs=args.jobs)
    else:
        if args.n is None or args.size is None:
            raise ValueError("--mode random requires --n and --size")
        stream = random_space_stream(args.n, args.size, args.samples, args.seed)
        result = ratio_search(stream, args.samples, jobs=args.jobs)
    _emit(result.to_dict())
    return 2 if result.conjecture_violated else 0


def _cmd_bounds(args) -> int:
    if args.entropy is not None:
        _emit({"epsilon": args.entropy, "binary_entropy": binary_entropy(args.entropy)})
        return 0
    if args.sauer is not None:
        size, n = args.sauer
        _emit(
            {
                "space_size": size,
                "domain_size": n,
                "guaranteed_vc": sauer_guaranteed_vc(size, n),
            }
        )
        return 0
    constants = solve_optimal_delta(args.tol)
    _emit(
        {
            "epsilon": constants.epsilon,
            "delta": constants.delta,
            "entropy_at_epsilon": binary_entropy(constants.epsilon),
            "tolerance": args.tol,
        }
    )
    return 0


def _cmd_report(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("report spec file must contain a JSON array of family specs")
    specs = [FamilySpec.from_dict(entry) for entry in doc]
    rows = run_report(
        specs, args.format, args.out, jobs=args.jobs, include_timing=not args.no_timing
    )
    _emit({"rows": rows, "out": args.out})
    return 0


def _build_parser() -> _Parser:
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
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="closed-form bound values")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--entropy", type=float)
    mode.add_argument("--sauer", type=int, nargs=2, metavar=("SIZE", "N"))
    mode.add_argument("--solve-delta", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("report", help="bound reports for a spec file of families")
    p.add_argument("--spec", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        sys.stderr.write(f"vc: error: {exc}\n")
        return 1
