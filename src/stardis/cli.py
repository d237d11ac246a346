"""Command-line interface: bounds, discrepancy, admissibility checks,
length-allocation QP, and sequence trajectories.

Exit codes: 0 success, 1 at least one admissibility check failed, 2 usage or
domain error.  Numbers print with 9 significant digits; ``--format records``
switches to bare comma-separated lines for downstream tooling.

Size inputs are capped, so that a large value exits 2 before anything is
allocated instead of exhausting memory: ``check --t`` at CHECK_MAX_T,
``qp --t`` (each end of a range) at QP_MAX_T, ``sequence --count`` at
SEQUENCE_MAX_COUNT and the prefix lengths of its checkpoints, summed, at
SEQUENCE_MAX_WORK.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .admissibility import build_f, check_all, make_scale
from .bounds import _FAMILIES, make_bound_report, optimize_constant, strict_bound, strong_bound
from .plf import make_point_set, read_point_file, star_discrepancy
from .sequences import checkpoints, kronecker, trajectory, van_der_corput, write_trajectory
from .variational import qp_gap_report

CHECK_MAX_T = 8  # N = floor(a^t) points: 6561 at a = 3, 35124 at a = 3.7
QP_MAX_T = 12  # ~a^(t-1) last-block steps; qp(3.7, 12) takes 11 s on a 2-core Xeon VM
SEQUENCE_MAX_COUNT = 10**6
# prefix lengths summed over the checkpoints, each costing time linear in its
# length: --stride all at N = 20 000, 1.5-4 s on a 2-core Xeon VM
SEQUENCE_MAX_WORK = 20_000 * 20_001 // 2


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stardis",
        description="Lower-bound machinery for the star-discrepancy constant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate or optimize the bound families")
    p.add_argument("--family", choices=("strong", "strict"), default=None)
    p.add_argument("--a", type=float, default=None, help="evaluate at this base")
    p.add_argument("--optimize", action="store_true", help="maximize bound/(2 ln a)")
    p.add_argument("--a-lo", type=float, default=None)
    p.add_argument("--a-hi", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("discrepancy", help="exact star discrepancy of a point file")
    p.add_argument("input", help="file with one point per line")
    p.add_argument("--n", type=int, default=None, help="prefix length (default: all)")
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("check", help="admissibility checks of the comparison function")
    p.add_argument("input", nargs="?", default=None, help="point file (or use --seed)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="generate a random point set")
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("qp", help="length-allocation QP versus the closed form")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", required=True, help="exponent, single value or range like 3..8")
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=_cmd_qp)

    p = sub.add_parser("sequence", help="discrepancy trajectory of a test sequence")
    p.add_argument("kind", choices=("vdc", "kronecker"))
    p.add_argument("--base", type=int, default=2, help="radical-inverse base (vdc)")
    p.add_argument("--alpha", type=float, default=None, help="rotation (kronecker)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--stride", default="dyadic", help="all, dyadic, or comma list")
    p.add_argument("--output", default=None, help="trajectory file path")
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.set_defaults(func=_cmd_sequence)
    return parser


def _cmd_bound(args) -> int:
    if args.optimize:
        family = args.family or "strict"
        dom_lo, dom_hi = _FAMILIES[family]
        lo = dom_lo if args.a_lo is None else args.a_lo
        hi = dom_hi if args.a_hi is None else args.a_hi
        a_star, c_star = optimize_constant(family, lo, hi, args.tol)
        if args.format == "records":
            print(f"{family},{_fmt(a_star)},{_fmt(c_star)}")
        else:
            print(f"family={family} a_star={_fmt(a_star)} c={_fmt(c_star)}")
        return 0
    if args.a is None:
        print("error: need --a or --optimize", file=sys.stderr)
        return 2
    if args.family is None:
        rep = make_bound_report(args.a)
        if args.format == "records":
            print(rep.record())
        else:
            print(
                f"a={_fmt(rep.a)} strong={_fmt(rep.strong_bound)} strict={_fmt(rep.strict_bound)}"
                f" c_strong={_fmt(rep.c_strong)} c_strict={_fmt(rep.c_strict)}"
            )
        return 0
    fn = strong_bound if args.family == "strong" else strict_bound
    b = fn(args.a)
    c = b / (2.0 * np.log(args.a))
    if args.format == "records":
        print(f"{args.family},{_fmt(args.a)},{_fmt(b)},{_fmt(c)}")
    else:
        print(f"family={args.family} a={_fmt(args.a)} bound={_fmt(b)} c={_fmt(c)}")
    return 0


def _cmd_discrepancy(args) -> int:
    ps = read_point_file(args.input)
    n = len(ps) if args.n is None else args.n
    d = star_discrepancy(ps, n)
    if args.format == "records":
        print(f"{n},{_fmt(d)}")
    else:
        print(f"n={n} dstar={_fmt(d)}")
    return 0


def _cmd_check(args) -> int:
    if (args.input is None) == (args.seed is None):
        print("error: need exactly one of a point file or --seed", file=sys.stderr)
        return 2
    if args.t > CHECK_MAX_T:
        raise ValueError(f"exponent t={args.t} above the check limit {CHECK_MAX_T}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"seed {args.seed} must be a non-negative integer")
    sc = make_scale(args.a, args.t)
    if args.input is not None:
        ps = read_point_file(args.input)
    else:
        ps = make_point_set(np.random.default_rng(args.seed).random(sc.N))
    rep = check_all(build_f(ps, sc), sc, ps)
    print("\n".join(rep.records() if args.format == "records" else rep.lines()))
    return 1 if not rep.all_ok else 0


def _parse_t_spec(spec: str) -> range:
    lo_s, dots, hi_s = str(spec).partition("..")
    lo = int(lo_s)
    hi = int(hi_s) if dots else lo
    if hi < lo:
        raise ValueError(f"empty exponent range {spec!r}")
    if hi > QP_MAX_T:
        raise ValueError(f"exponent t={hi} above the qp limit {QP_MAX_T}")
    # a range, not a list: a far-off lower end fails qp's own t >= 1 check
    # at its first value instead of being listed out
    return range(lo, hi + 1)


def _cmd_qp(args) -> int:
    ts = _parse_t_spec(args.t)
    rows = qp_gap_report(args.a, ts)
    for t, obj, closed, gap in rows:
        if args.format == "records":
            print(f"{t},{_fmt(obj)},{_fmt(closed)},{_fmt(gap)}")
        else:
            print(f"t={t} qp={_fmt(obj)} closed={_fmt(closed)} gap={_fmt(gap)}")
    return 0


def _parse_stride(spec: str):
    if spec in ("all", "dyadic"):
        return spec
    try:
        return [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad stride {spec!r}: use all, dyadic, or comma-separated integers") from exc


def _cmd_sequence(args) -> int:
    if args.count > SEQUENCE_MAX_COUNT:
        raise ValueError(f"count {args.count} above the sequence limit {SEQUENCE_MAX_COUNT}")
    stride = _parse_stride(args.stride)
    work = sum(checkpoints(stride, args.count))
    if work > SEQUENCE_MAX_WORK:
        raise ValueError(f"checkpoints sum to {work} prefix points, above the sequence limit {SEQUENCE_MAX_WORK}")
    if args.kind == "vdc":
        ps = van_der_corput(args.base, args.count)
    elif args.alpha is None:
        ps = kronecker(args.count)
    else:
        ps = kronecker(args.count, args.alpha)
    records = trajectory(ps, stride)
    path = args.output
    if path is None:
        out_dir = os.environ.get("STARDIS_OUTPUT_DIR", ".")
        path = os.path.join(out_dir, f"trajectory_{args.kind}.txt")
    write_trajectory(records, path)
    peak = records[-1].running_max
    if args.format == "records":
        for r in records:
            print(r.record())
    else:
        print(f"records={len(records)} file={path} max_normalized={_fmt(peak)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
