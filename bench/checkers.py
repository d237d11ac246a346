"""Output checkers and the independent oracles they compare against.

Every checker takes the op and what the program produced and returns
``None`` when the output is correct, or a one-line reason.  Oracles here
re-derive the expected values from first principles (exact rationals, the
closed-form bound formulas, the definition of the star discrepancy) and do
not call the program, with one exception: the trajectory file is parsed with
``stardis.sequences.read_trajectory``, because the round trip through that
reader is itself what is being checked.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import REFERENCE_PATH


# printed numbers carry 9 significant digits: rounding moves them by < 5e-9
PRINT_REL = 6e-9
# acceptance tolerances for the optimized constants
OPTIMA = {"strict": (3.62079, 0.065664679), "strong": (3.71866, 0.0646363)}
A_TOL, C_TOL = 5e-4, 1e-5
# prefixes up to this length are checked in exact rationals, longer ones with
# the float form of the same definition (rationals cost ~30 us per point)
EXACT_MAX_N = 512

_STATUS = {"pass": "p", "fail": "f", "skipped": "s"}


def _close(x: float, y: float, rel: float = PRINT_REL, abs_tol: float = 1e-12) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + abs_tol


# -- closed forms (written out again, independent of stardis.bounds) ---------


def strong_formula(a: float) -> float:
    return (a - 2) * (8 * a + 3) / (8 * (2 * a - 1) ** 2)


def strict_formula(a: float) -> float:
    lam = math.log(1 + 1 / (a - 2))
    num = (a - 2) * (12 * a + 9 + (a - 2) * (4 * a - 3) * lam)
    den = 16 * (a - 0.5) ** 2 * (3 + (a - 2) * lam)
    return num / den


def q2_formula(a: float, t: int, n: int, L: float) -> float:
    s = a ** (t - 1) * (a - 2)
    return L * L * s * (n + s) / (2 * (n + 2 * s))


# -- star discrepancy oracles -------------------------------------------------


def dstar_exact(points, n: int) -> Fraction:
    """sup_x |#{i<=n : x_i < x}/n - x| from the definition, in exact
    rationals: on (v_k, v_{k+1}] the count is constant, so the supremum sits
    at an end of each such stretch."""
    vals = sorted(Fraction(v) for v in points[:n])
    best = Fraction(0)
    count = 0
    i = 0
    while i < len(vals):
        v = vals[i]
        best = max(best, abs(Fraction(count, n) - v))  # x = v: strictly below v
        while i < len(vals) and vals[i] == v:
            i += 1
            count += 1
        best = max(best, abs(Fraction(count, n) - v))  # x just above v
    return best


def dstar_float(points, n: int) -> float:
    """Same definition in floats, for prefixes too long for rationals:
    counts below and up to each distinct value against the value itself."""
    vals, counts = np.unique(np.asarray(points[:n], dtype=float), return_counts=True)
    upto = np.cumsum(counts)
    below = upto - counts
    return float(max(np.max(np.abs(below / n - vals)), np.max(np.abs(upto / n - vals))))


def dstar(points, n: int) -> float:
    return float(dstar_exact(points, n)) if n <= EXACT_MAX_N else dstar_float(points, n)


def vdc_points(base: int, count: int) -> list[float]:
    """Radical inverses of 1..count, each rounded once from its exact
    integer numerator and denominator."""
    out = []
    for k in range(1, count + 1):
        num, den = 0, 1
        while k:
            k, d = divmod(k, base)
            num = num * base + d
            den *= base
        out.append(num / den)
    return out


def kronecker_points(count: int, alpha: float) -> list[float]:
    return [math.fmod(k * alpha, 1.0) for k in range(1, count + 1)]


def stride_list(stride: str, total: int) -> list[int]:
    if stride == "all":
        return list(range(1, total + 1))
    ns = [2**k for k in range(1, total.bit_length()) if 2**k <= total]
    if not ns or ns[-1] != total:
        ns.append(total)
    return ns


# -- check-suite -----------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["entries"]


def canonical_heads(t: int, strict_lines: int) -> list[str]:
    N, n0 = 3**t, 3 ** (t - 1)
    heads = ["i", "ii", "iii", "iv", "v", "vi", "continuity[x1]"]
    heads += [f"bend[j={j}]" for j in range(N - n0 + 1, N)]
    heads += ["strict-a", "strict-b", "strict-c"] if strict_lines == 3 else ["strict"]
    return heads


def encode_verdicts(stdout: str) -> tuple[list[str], str]:
    heads, codes = [], []
    for line in stdout.splitlines():
        head, _, status = line.partition(",")
        heads.append(head)
        codes.append(_STATUS.get(status, "?"))
    return heads, "".join(codes)


def check_verdicts(op, rc: int, stdout: str, reference: dict) -> str | None:
    ref = reference.get(op.expect["key"])
    if ref is None:
        return f"no reference verdicts for {op.expect['key']}"
    heads, codes = encode_verdicts(stdout)
    t = op.expect["t"]
    if heads not in (canonical_heads(t, 3), canonical_heads(t, 1)) or len(codes) != len(ref["status"]):
        return f"unexpected check lines ({len(heads)} lines)"
    if codes != ref["status"]:
        k = next(i for i, (x, y) in enumerate(zip(codes, ref["status"])) if x != y)
        return f"verdict of {heads[k]} is {codes[k]}, reference {ref['status'][k]}"
    if rc != ref["exit"]:
        return f"exit code {rc}, reference {ref['exit']}"
    return None


# -- bound-chain -------------------------------------------------------------------


def _fields(stdout: str, width: int) -> list[list[str]] | None:
    rows = [line.split(",") for line in stdout.splitlines() if line]
    if not rows or any(len(r) != width for r in rows):
        return None
    return rows


def check_bound(op, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    cls, e = op.cls, op.expect
    if cls == "bound-eval":
        rows = _fields(stdout, 5)
        if rows is None or len(rows) != 1:
            return "expected one 5-field record"
        a, sg, st, cg, ct = map(float, rows[0])
        d = 2 * math.log(e["a"])
        want = (e["a"], strong_formula(e["a"]), strict_formula(e["a"]))
        if not all(_close(x, y) for x, y in zip((a, sg, st, cg, ct), want + (want[1] / d, want[2] / d))):
            return f"bound report {rows[0]} disagrees with the closed forms at a={e['a']}"
        return None
    if cls == "bound-family":
        rows = _fields(stdout, 4)
        if rows is None or len(rows) != 1 or rows[0][0] != e["family"]:
            return "expected one family record"
        b, c = float(rows[0][2]), float(rows[0][3])
        want = (strong_formula if e["family"] == "strong" else strict_formula)(e["a"])
        if not (_close(b, want) and _close(c, want / (2 * math.log(e["a"])))):
            return f"{e['family']} bound {b} vs closed form {want}"
        return None
    if cls == "bound-optimize":
        rows = _fields(stdout, 3)
        if rows is None or len(rows) != 1 or rows[0][0] != e["family"]:
            return "expected one optimize record"
        a_star, c_star = float(rows[0][1]), float(rows[0][2])
        a_ref, c_ref = OPTIMA[e["family"]]
        if abs(a_star - a_ref) >= A_TOL or abs(c_star - c_ref) >= C_TOL:
            return f"optimum ({a_star}, {c_star}) outside tolerance of ({a_ref}, {c_ref})"
        phi = lambda x: (strong_formula if e["family"] == "strong" else strict_formula)(x) / (2 * math.log(x))
        if not _close(c_star, phi(a_star), rel=1e-8):
            return f"c*={c_star} is not the objective at a*={a_star}"
        if not e["lo"] <= a_star <= e["hi"]:
            return f"a*={a_star} outside the bracket"
        return None
    if cls == "qp":
        rows = _fields(stdout, 4)
        if rows is None or [int(r[0]) for r in rows] != e["ts"]:
            return "expected one record per exponent 3..10"
        closed_ref = strict_formula(e["a"])
        for r in rows:
            obj, closed, gap = float(r[1]), float(r[2]), float(r[3])
            if gap < -1e-10:
                return f"t={r[0]}: QP objective below the closed form by {-gap:.3g}"
            if not _close(closed, closed_ref):
                return f"t={r[0]}: closed form {closed} vs {closed_ref}"
            if abs((obj - closed) - gap) > 2 * PRINT_REL * abs(obj):
                return f"t={r[0]}: gap {gap} inconsistent with {obj} - {closed}"
        return None
    raise ValueError(f"no bound checker for class {cls!r}")


class SweepChecker:
    """q2_shape_sweep results: never below the Q2 closed form, and never
    increasing as the grid refines (coarse grids probe a subset of fine
    ones), compared across the ops of one run."""

    def __init__(self):
        self.seen: dict[tuple, dict[int, float]] = {}

    def __call__(self, op, value) -> str | None:
        e = op.expect
        if not isinstance(value, float) or not math.isfinite(value):
            return f"sweep returned {value!r}"
        closed = q2_formula(e["a"], e["t"], e["n"], e["L"])
        if value < closed - 1e-9:
            return f"sweep {value!r} below closed form {closed!r}"
        grids = self.seen.setdefault((e["a"], e["t"], e["n"], e["L"]), {})
        for g, v in grids.items():
            coarse, fine = (v, value) if g < e["grid"] else (value, v)
            if g != e["grid"] and fine > coarse * (1 + 1e-13):
                return f"sweep rises under refinement: grid {min(g, e['grid'])} {coarse!r} -> {max(g, e['grid'])} {fine!r}"
        grids[e["grid"]] = value
        return None


# -- trajectory ----------------------------------------------------------------------


def check_discrepancy(op, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    rows = _fields(stdout, 2)
    if rows is None or len(rows) != 1:
        return "expected one n,dstar record"
    n, d = int(rows[0][0]), float(rows[0][1])
    if n != op.expect["n"]:
        return f"prefix {n}, asked for {op.expect['n']}"
    want = dstar(op.expect["points"], n)
    if not _close(d, want):
        return f"dstar {d!r} vs oracle {want!r} at n={n}"
    return None


class SequenceChecker:
    """``sequence`` records: prefix lengths follow the stride, the derived
    columns agree with dstar, dstar at a few sampled N (always the last)
    matches the oracle, and the trajectory file reads back through
    ``read_trajectory`` to the same records.  Oracle points are cached per
    sequence, since every sequence here is a prefix of a longer one."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.points: dict[tuple, list[float]] = {}

    def sequence_points(self, e: dict) -> list[float]:
        key = (e["kind"], e.get("base"), e.get("alpha"))
        have = self.points.get(key, [])
        if len(have) < e["N"]:
            if e["kind"] == "vdc":
                have = vdc_points(e.get("base", 2), e["N"])
            else:
                have = kronecker_points(e["N"], e.get("alpha", (math.sqrt(5.0) - 1.0) / 2.0))
            self.points[key] = have
        return have

    def __call__(self, op, rc: int, stdout: str, rng) -> str | None:
        from stardis.sequences import read_trajectory

        if rc != 0:
            return f"exit code {rc}"
        e = op.expect
        rows = _fields(stdout, 5)
        ns = stride_list(e["stride"], e["N"])
        if rows is None or [int(r[0]) for r in rows] != ns:
            return "record prefix lengths differ from the stride"
        running = 0.0
        for r in rows:
            n, d, scaled = int(r[0]), float(r[1]), float(r[2])
            if not _close(scaled, n * d, rel=4 * PRINT_REL):
                return f"N={n}: scaled {scaled} != N*dstar"
            if r[3]:
                norm = float(r[3])
                if not _close(norm, n * d / math.log(n), rel=4 * PRINT_REL):
                    return f"N={n}: normalized {norm} != N*dstar/ln N"
                running = max(running, norm)
            if not _close(float(r[4]), running, rel=4 * PRINT_REL):
                return f"N={n}: running max {r[4]} vs {running}"
        points = self.sequence_points(e)
        picks = {ns[-1]} | set(rng.sample(ns, min(e["samples"] - 1, len(ns))))
        for n in sorted(picks):
            d = float(rows[ns.index(n)][1])
            want = dstar(points, n)
            if not _close(d, want):
                return f"N={n}: dstar {d!r} vs oracle {want!r}"
        try:
            back = read_trajectory(self.workdir / e["output"])
        except (OSError, ValueError) as exc:
            return f"trajectory file unreadable: {exc}"
        if len(back) != len(rows):
            return f"trajectory file holds {len(back)} records, stdout {len(rows)}"
        for rec, r in zip(back, rows):
            fields = (rec.N, rec.dstar, rec.scaled, rec.normalized, rec.running_max)
            want = (int(r[0]), float(r[1]), float(r[2]), float(r[3]) if r[3] else None, float(r[4]))
            if fields != want:
                return f"trajectory file record {fields} differs from stdout {want}"
        return None
