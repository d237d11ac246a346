"""Seeded op generation for the three benchmark workloads.

A workload is an endless stream of *decks* of 25 ops.  Every deck holds the
same multiset of op classes; the seed picks the free inputs (pool members,
interval lengths, bases, brackets) and the order.  A run always executes
whole decks, so class shares are exact in every run.  With 25 ops per deck,
p50 falls on per-deck latency rank 12 and p90 on rank 22 (0-based) whatever
the number of decks, and ``DECKS`` places a class of similar latencies
around each of those ranks.

Inputs the program reads from disk (point files) are returned as file
contents; the caller writes them before timing starts.  Nothing here imports
the program: a deck is plain data.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("check-suite", "bound-chain", "trajectory")
REFERENCE_PATH = Path(__file__).with_name("reference_verdicts.json")

# check-suite draws uniform point sets from fixed pools of CLI seeds so that
# the per-line verdicts can be compared with a stored reference table
CHECK_A = "3"
UNIFORM_POOL = {4: 18, 5: 20, 6: 16}
TIED_POOL = {4: 8, 5: 8}
TIED_LEVELS = (16, 32, 64, 243)

SWEEP_A = 3.0
SWEEP_LENGTHS = (0.01, 0.05, 0.1)
QP_BASES = ("3", "3.3", "3.62079", "3.62079", "3.7", "3.7")
# every t=3 grid-100 sweep has this n, so the class that holds p50 on
# bound-chain spans only the L-dependence (about 10 %); over n = 1..8 it
# spans 5x
T3_SWEEP_N = 5
TRAJ_ALL_SIZES = (500, 500, 1000, 1000, 2000, 2000, 3000, 3000, 3000, 3000)
TRAJ_KRON_DYADIC = (20000, 50000, 100000)
TRAJ_VDC_DYADIC = 100000
# None runs the CLI default (golden-mean rotation)
KRONECKER_ALPHAS = (None, "0.414213562373", "0.718281828459")

# Deck contents: (class, count), 25 ops.  Latencies (ms) measured on a
# 2-core x86 VM with one BLAS thread.
DECKS = {
    # ranks 0-9 t=4 (~30), 10-20 t=5 (90-190) holding p50, 21-24 t=6
    # (0.55-1.35 s) holding p90; t=6 carries about 70 % of the wall
    "check-suite": (
        ("check-t4", 9),
        ("check-tied-t4", 1),
        ("check-tied-t5", 1),
        ("check-t5", 10),
        ("check-t6", 4),
    ),
    # ranks 0-7 bound (~2), 8-10 t=2 grid-100 sweeps (3-5), 11-14 t=3
    # grid-100 sweeps at n=5 (18-26) holding p50, 15-19 grid-400/200 sweeps and qp
    # at a <= 3.3 (50-630), 20-23 qp at a >= 3.62 (~690, PGD-bound) holding
    # p90, 24 the grid-1600 sweep (1.3-1.9 s)
    "bound-chain": (
        ("bound-eval", 5),
        ("bound-family", 1),
        ("bound-optimize", 2),
        ("sweep-t2-g100", 3),
        ("sweep-t3-g100", 4),
        ("sweep-t2-g400", 1),
        ("sweep-t3-g200", 1),
        ("sweep-t3-g400", 1),
        ("sweep-t2-g1600", 1),
        ("qp", 6),
    ),
    # ranks 0-10 discrepancy (2-5), 11-13 kronecker dyadic 2e4 and
    # stride-all N=500 (~20) holding p50, 14-19 N=1000/2000 and the larger
    # kronecker runs, 20-23 stride-all N=3000 (~330) holding p90, 24 vdc
    # dyadic N=1e5 (~540)
    "trajectory": (
        ("discrepancy", 8),
        ("discrepancy-tied", 3),
        ("seq-kronecker-dyadic", 3),
        ("seq-all", 10),
        ("seq-vdc-dyadic", 1),
    ),
}


@dataclass(frozen=True)
class Op:
    """One closed-loop request.

    ``argv`` is a ``stardis`` command line (run through ``stardis.cli.main``)
    or, for ``q2_shape_sweep`` which has no subcommand, ``call`` holds its
    positional arguments.  ``expect`` is what the checker needs; ``files``
    pairs a path relative to the working directory with the content the op
    reads.
    """

    cls: str
    argv: tuple[str, ...] | None = None
    call: tuple | None = None
    expect: dict = field(default_factory=dict, hash=False)
    files: tuple[tuple[str, str], ...] = ()


class _Cycler:
    """Draw from a pool in shuffled epochs, so every member is used about
    equally often within a run."""

    def __init__(self, rng: random.Random, members):
        self.rng = rng
        self.members = list(members)
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = self.members[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _strata(rng: random.Random, t: int, per_deck: int) -> list[_Cycler]:
    """Split the t-pool into ``per_deck`` strata by the number of checks its
    sets actually run (non-skipped lines in the reference table, which
    mostly set the cost), so every deck takes one set from each stratum and decks
    cost about the same."""
    entries = json.loads(REFERENCE_PATH.read_text())["entries"]
    members = sorted(range(UNIFORM_POOL[t]), key=lambda k: (len(entries[f"u{t}:{k}"]["status"].replace("s", "")), k))
    size = len(members) // per_deck
    return [_Cycler(rng, members[i * size : (i + 1) * size]) for i in range(per_deck)]


class OpStream:
    """Deterministic deck sequence for (workload, seed).  Pool draws carry
    over between decks, so decks must be taken in order 0, 1, 2, ..."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = int(seed)
        rng = random.Random(f"{workload}:{seed}:pools")
        counts = dict(DECKS[workload])
        self.strata = {}
        if workload == "check-suite":
            self.strata = {t: _strata(rng, t, counts[f"check-t{t}"]) for t in UNIFORM_POOL}
            self.tied = {t: _Cycler(rng, range(n)) for t, n in TIED_POOL.items()}
        self.t3n = _Cycler(rng, range(1, 9))

    def deck(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        # every deck sweeps one (n, L) at grids 100, 400 and 1600, so that
        # refinement monotonicity is checked on program outputs in each run;
        # n alternates between decks to keep the grid-1600 cost even
        ctx = {"index": index, "triple": (1 + (self.seed + index) % 2, rng.choice(SWEEP_LENGTHS))}
        build = _OP_MAKERS[self.workload]
        ops = [build(self, cls, rng, ctx, k) for cls, count in DECKS[self.workload] for k in range(count)]
        rng.shuffle(ops)
        return ops


# -- check-suite -----------------------------------------------------------


def tied_points(t: int, member: int) -> list[float]:
    """Point set of pool member ``member`` at scale t: uniform values
    rounded down to a coarse level grid, so values repeat."""
    level = TIED_LEVELS[member % len(TIED_LEVELS)]
    rng = random.Random(f"tied:{t}:{member}")
    return [math.floor(rng.random() * level) / level for _ in range(3**t)]


def points_text(points) -> str:
    return "".join(f"{float(v)!r}\n" for v in points)


def _check_op(stream: OpStream, cls: str, rng, ctx: dict, k: int) -> Op:
    tail = ("--a", CHECK_A)
    if cls.startswith("check-tied"):
        t = int(cls[-1])
        member = stream.tied[t].next()
        path = f"tied_t{t}_{member}.txt"
        return Op(
            cls,
            argv=("check", path) + tail + ("--t", str(t), "--format", "records"),
            expect={"key": f"tied{t}:{member}", "t": t},
            files=((path, points_text(tied_points(t, member))),),
        )
    t = int(cls[-1])
    member = stream.strata[t][k].next()
    return Op(
        cls,
        argv=("check",) + tail + ("--t", str(t), "--seed", str(member), "--format", "records"),
        expect={"key": f"u{t}:{member}", "t": t},
    )


# -- bound-chain -----------------------------------------------------------


def _fmt_a(x: float) -> str:
    return f"{x:.6f}"


def _bound_op(stream: OpStream, cls: str, rng, ctx: dict, k: int) -> Op:
    if cls == "bound-eval":
        a = _fmt_a(rng.uniform(3.0, 3.7))
        return Op(cls, argv=("bound", "--a", a, "--format", "records"), expect={"a": float(a)})
    if cls == "bound-family":
        family = rng.choice(("strong", "strict"))
        a = _fmt_a(rng.uniform(3.0, 4.0 if family == "strong" else 3.7))
        return Op(
            cls,
            argv=("bound", "--family", family, "--a", a, "--format", "records"),
            expect={"family": family, "a": float(a)},
        )
    if cls == "bound-optimize":
        # brackets always contain the family's maximizer
        family = ("strict", "strong")[k % 2]
        if family == "strict":
            lo, hi = rng.uniform(3.0, 3.55), rng.uniform(3.66, 3.7)
        else:
            lo, hi = rng.uniform(3.0, 3.65), rng.uniform(3.78, 4.0)
        lo_s, hi_s = _fmt_a(lo), _fmt_a(hi)
        return Op(
            cls,
            argv=("bound", "--optimize", "--family", family, "--a-lo", lo_s, "--a-hi", hi_s, "--format", "records"),
            expect={"family": family, "lo": float(lo_s), "hi": float(hi_s)},
        )
    if cls == "qp":
        a = QP_BASES[k]
        return Op(cls, argv=("qp", "--a", a, "--t", "3..10", "--format", "records"), expect={"a": float(a), "ts": list(range(3, 11))})
    # q2_shape_sweep: library call, no subcommand exists
    _, tt, gg = cls.split("-")
    t, grid = int(tt[1:]), int(gg[1:])
    if t == 2 and (grid != 100 or k == 0):
        n, L = ctx["triple"]
    elif t == 2:
        n, L = k, rng.choice(SWEEP_LENGTHS)
    elif grid == 100:
        n, L = T3_SWEEP_N, rng.choice(SWEEP_LENGTHS)
    else:
        n, L = stream.t3n.next(), rng.choice(SWEEP_LENGTHS)
    return Op(cls, call=(SWEEP_A, t, n, L, grid), expect={"a": SWEEP_A, "t": t, "n": n, "L": L, "grid": grid})


# -- trajectory --------------------------------------------------------------


def discrepancy_points(rng: random.Random, tied: bool) -> list[float]:
    n = rng.choice((256, 512, 1024, 2048, 4096))
    if tied:
        level = rng.choice((64, 256, 1000))
        return [math.floor(rng.random() * level) / level for _ in range(n)]
    return [rng.random() for _ in range(n)]


def _traj_op(stream: OpStream, cls: str, rng, ctx: dict, k: int) -> Op:
    if cls.startswith("discrepancy"):
        pts = discrepancy_points(rng, cls.endswith("tied"))
        path = f"points_{ctx['index']}_{k}_{cls}.txt"
        argv = ("discrepancy", path, "--format", "records")
        n = len(pts)
        if k % 2:
            n = rng.randint(1, len(pts))
            argv = ("discrepancy", path, "--n", str(n), "--format", "records")
        return Op(cls, argv=argv, expect={"points": pts, "n": n}, files=((path, points_text(pts)),))
    out = f"traj_{ctx['index']}_{k}_{cls}.txt"
    if cls == "seq-all":
        N = TRAJ_ALL_SIZES[k]
        kind = rng.choice(("vdc", "kronecker"))
        stride = "all"
    elif cls == "seq-vdc-dyadic":
        kind, N, stride = "vdc", TRAJ_VDC_DYADIC, "dyadic"
    else:
        kind, N, stride = "kronecker", TRAJ_KRON_DYADIC[k], "dyadic"
    argv = ["sequence", kind, "--count", str(N), "--stride", stride]
    expect = {"kind": kind, "N": N, "stride": stride, "output": out, "samples": 2}
    if kind == "vdc":
        base = rng.choice((2, 3)) if stride == "all" else 2
        argv += ["--base", str(base)]
        expect["base"] = base
    else:
        alpha = rng.choice(KRONECKER_ALPHAS)
        if alpha is not None:
            argv += ["--alpha", alpha]
            expect["alpha"] = float(alpha)
    argv += ["--output", out, "--format", "records"]
    return Op(cls, argv=tuple(argv), expect=expect)


_OP_MAKERS = {"check-suite": _check_op, "bound-chain": _bound_op, "trajectory": _traj_op}


def warmup_ops(workload: str) -> list[Op]:
    """A few cheap ops run untimed before measuring, so lazy imports and
    first-call set-up inside numpy are paid outside the timed loop."""
    if workload == "check-suite":
        return [Op("warmup", argv=("check", "--a", CHECK_A, "--t", "3", "--seed", "0", "--format", "records"))]
    if workload == "bound-chain":
        return [
            Op("warmup", argv=("bound", "--a", "3.5", "--format", "records")),
            Op("warmup", argv=("qp", "--a", "3.7", "--t", "10", "--format", "records")),
            Op("warmup", call=(SWEEP_A, 2, 1, 0.05, 1600)),
        ]
    return [Op("warmup", argv=("sequence", "kronecker", "--count", "64", "--stride", "all", "--output", "warmup.txt", "--format", "records"))]
