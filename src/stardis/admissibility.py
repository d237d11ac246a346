"""Two-scale comparison functions and their admissibility checks.

Given a prefix of length N = floor(a^t), the index range splits into the first
block A0, the last block A2 (both of size floor(a^{t-1})), and the middle A1.
The comparison function is

    f(x) = max_{n in A2} D_n(x) - max_{n in A0} D_n(x),

a piecewise-linear function with nonnegative jumps, steep negative slopes, and
unit jumps at the middle-block points.  This module builds f exactly and
verifies the structural properties that make it a member of the admissible
family, including the slope-threshold/back-line ("bend") condition and the
strict variant with an explicit jump-location set.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import _check_domain
from .plf import PiecewiseLinearFn, PointSet, discrepancy_function

__all__ = [
    "ScaleParams",
    "GammaSets",
    "Violation",
    "PropertyReport",
    "make_scale",
    "build_f",
    "check_all",
    "check_properties",
    "check_bend_condition",
    "check_strict_admissibility",
    "gamma_sets_from_points",
]

TOL = 1e-12
JUMP_TOL = 1e-9  # unit-height jumps survive envelope arithmetic to ~1e-15


@dataclass(frozen=True)
class ScaleParams:
    """Scale (a, t) with the derived index partition and slope threshold.

    s0 = -a^{t-1}(a-2) is negative; abs_s0 is its magnitude.  integer_exact
    marks a = 3, where a^t and a^{t-1} are exact integers and the full
    property checks apply.
    """

    a: float
    t: int
    N: int
    n0: int
    s0: float
    abs_s0: float
    integer_exact: bool

    @property
    def A0(self) -> range:
        return range(1, self.n0 + 1)

    @property
    def A1(self) -> range:
        return range(self.n0 + 1, self.N - self.n0 + 1)

    @property
    def A2(self) -> range:
        return range(self.N - self.n0 + 1, self.N + 1)


def make_scale(a: float, t: int) -> ScaleParams:
    """Build ScaleParams for 3 <= a <= 3.7 and integer t >= 1."""
    a, t = _check_domain(a, t)
    N = math.floor(a**t)
    n0 = math.floor(a ** (t - 1))
    abs_s0 = a ** (t - 1) * (a - 2.0)
    sc = ScaleParams(a, t, N, n0, -abs_s0, abs_s0, integer_exact=(a == 3.0))
    if 2 * n0 >= N:
        raise ValueError(f"degenerate partition at (a={a}, t={t})")
    return sc


@dataclass(frozen=True)
class Violation:
    """First witness of a failed property: location, measured value, threshold."""

    where: float
    measured: float
    threshold: float
    note: str = ""


@dataclass
class PropertyReport:
    """Per-property status ("pass", "fail" or "skipped"), with the first
    violation witness of each failure and the reason of each skip."""

    entries: list[tuple[str, str, Violation | str | None]] = field(default_factory=list)

    def add(self, prop: str, ok: bool, witness: Violation | None = None) -> None:
        self.entries.append((prop, "pass" if ok else "fail", None if ok else witness))

    def skip(self, prop: str, reason: str) -> None:
        self.entries.append((prop, "skipped", reason))

    def extend(self, other: PropertyReport, prefix: str = "") -> None:
        self.entries += [(prefix + name, *rest) for name, *rest in other.entries]

    @property
    def all_ok(self) -> bool:
        return all(status != "fail" for _, status, _ in self.entries)

    def _entry(self, prop: str) -> tuple[str, str, Violation | str | None]:
        for entry in self.entries:
            if entry[0] == prop:
                return entry
        raise KeyError(prop)

    def passed(self, prop: str) -> bool:
        return self._entry(prop)[1] == "pass"

    def witness(self, prop: str) -> Violation | None:
        _, status, w = self._entry(prop)
        return w if status == "fail" else None

    def records(self) -> list[str]:
        return [f"{name},{status}" for name, status, _ in self.entries]

    def lines(self) -> list[str]:
        out = []
        for name, status, w in self.entries:
            if status == "skipped":
                out.append(f"{name}: skipped ({w})")
            elif status == "pass":
                out.append(f"{name}: pass")
            elif w is None:
                out.append(f"{name}: FAIL")
            else:
                extra = f" ({w.note})" if w.note else ""
                out.append(
                    f"{name}: FAIL at x={w.where:.9g}, measured {w.measured:.9g}"
                    f" vs threshold {w.threshold:.9g}{extra}"
                )
        return out


def _envelope_max(ps: PointSet, indices: range) -> PiecewiseLinearFn:
    """max over n in indices of D_n, merged one ``maximum`` at a time in
    index order.

    Each D_n comes from ``discrepancy_function``, once per index.  A merge
    adds D_n's new prefix point and the strict crossings to the envelope's
    grid, so the envelope is sampled only there and no union is sorted.
    """
    return functools.reduce(PiecewiseLinearFn.maximum, (discrepancy_function(ps, n) for n in indices))


def build_f(ps: PointSet, sc: ScaleParams) -> PiecewiseLinearFn:
    """Upper envelope over A2 minus upper envelope over A0, exactly."""
    if len(ps) != sc.N:
        raise ValueError(f"point set has {len(ps)} points, scale needs N={sc.N}")
    return _envelope_max(ps, sc.A2) - _envelope_max(ps, sc.A0)


def check_properties(f: PiecewiseLinearFn, sc: ScaleParams, ps: PointSet) -> PropertyReport:
    """Check structural properties (i)-(vi); reports, never raises.

    (i) endpoint zeros; (ii) |f| <= a^t; (iii) every jump nonnegative;
    (iv) slopes within [-a^t, s0]; (v) slope changes across jump-free
    breakpoints at most a^{t-1}; (vi) jump height >= 1 at each middle-block
    point.
    """
    rep = PropertyReport()
    at = sc.a**sc.t
    at1 = sc.a ** (sc.t - 1)
    bp = f.breakpoints
    left = f.left_values
    right = left[:-1] + f.jumps

    # (i) zeros at both ends
    if abs(f.anchor) > TOL:
        rep.add("i", False, Violation(0.0, f.anchor, 0.0, "f(0) != 0"))
    elif abs(left[-1]) > TOL:
        rep.add("i", False, Violation(1.0, float(left[-1]), 0.0, "f(1) != 0"))
    else:
        rep.add("i", True)

    # (ii) bounded by a^t; extremes of a PLF sit at segment endpoint limits
    mags = np.maximum(np.abs(left), np.concatenate([np.abs(right), [0.0]]))
    k = int(np.argmax(mags))
    rep.add(
        "ii",
        mags[k] <= at + JUMP_TOL,
        Violation(float(bp[k]), float(mags[k]), at),
    )

    # (iii) no negative jump
    k = int(np.argmin(f.jumps))
    rep.add(
        "iii",
        f.jumps[k] >= -TOL,
        Violation(float(bp[k]), float(f.jumps[k]), 0.0),
    )

    # (iv) slopes within [-a^t, s0]
    sl = f.slopes
    bad = (sl < -at - JUMP_TOL) | (sl > sc.s0 + JUMP_TOL)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        rep.add("iv", False, Violation(float(bp[k + 1]), float(sl[k]), sc.s0, f"range [{-at:g}, {sc.s0:g}]"))
    else:
        rep.add("iv", True)

    # (v) consecutive slopes differ by at most a^{t-1} across jump-free breakpoints
    smooth = np.abs(f.jumps[1:]) <= TOL
    diffs = np.abs(np.diff(sl))
    bad = smooth & (diffs > at1 + JUMP_TOL)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        rep.add("v", False, Violation(float(bp[k + 1]), float(diffs[k]), at1))
    else:
        rep.add("v", True)

    # (vi) unit jumps at middle-block points
    h = f.jumps_at(ps.values[sc.n0 : sc.N - sc.n0])  # A1 points present in ps
    bad_vi = np.flatnonzero(h < 1.0 - JUMP_TOL)
    if bad_vi.size:
        k = int(bad_vi[0])
        i = sc.n0 + 1 + k
        rep.add("vi", False, Violation(ps.points[i - 1], float(h[k]), 1.0, f"point index {i}"))
    else:
        rep.add("vi", True)
    return rep


def _probes(
    f: PiecewiseLinearFn, lo: float, hi: float, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(x, limit-value) probes covering every affine piece of f on (lo, hi).

    The window: two binary searches pick the segments of f that meet
    (lo, hi), and each is clipped to [max(b_k, lo), min(b_{k+1}, hi)].  With a
    ``threshold`` only pieces whose slope exceeds it fire (ties do not).
    Every piece gives three probes, in piece order: the limit from the right
    at its left end (value plus jump), the value at its midpoint and the
    limit from the left at its right end; exact for affine pieces.
    Boundary values are limits from inside the interval, so a jump sitting
    exactly at lo or hi does not leak in: the dominance claims being checked
    hold pointwise on the open interval and extend to its ends only by
    one-sided limits.  Requires lo < hi.  Returns the probe abscissas and
    values as two arrays.
    """
    bp = f.breakpoints
    k = np.arange(
        int(np.searchsorted(bp, lo, side="right")) - 1,
        int(np.searchsorted(bp, hi, side="left")),
    )
    if threshold is not None:
        k = k[f.slopes[k] > threshold + JUMP_TOL]
    u = np.maximum(bp[k], lo)
    v = np.minimum(bp[k + 1], hi)
    mid = (u + v) / 2
    xs = np.column_stack([u, mid, v]).ravel()
    ys = np.column_stack(
        [f.values_at(u) + f.jumps_at(u), f.values_at(mid), f.values_at(v)]
    ).ravel()
    return xs, ys


def _backline_check(
    f: PiecewiseLinearFn,
    lo: float,
    jump_x: float,
    hi: float,
    threshold: float,
    s0: float,
) -> tuple[bool, bool, Violation | None]:
    """Back-line dominance test around a jump at jump_x.

    If any point of (jump_x, hi) lies on a segment with slope above
    ``threshold``, then every point of [lo, jump_x) must dominate the line of
    slope s0 drawn back from it:  f(x) >= f(xbar) - s0*(xbar - x).  The value
    at lo is read as the limit from the right: a jump at the neighbor point
    itself belongs to the stretch left of it, not to this one.
    Returns (ok, fired, witness).
    """
    xs, ys = _probes(f, jump_x, hi, threshold)
    if not xs.size:
        return True, False, None
    i = int(np.argmax(ys - s0 * xs))  # first maximum, as max() picks
    xbar, fbar = float(xs[i]), float(ys[i])
    rhs = fbar - s0 * xbar
    xs, ys = _probes(f, lo, jump_x)
    i = int(np.argmin(ys - s0 * xs))
    xlow, flow = float(xs[i]), float(ys[i])
    lhs = flow - s0 * xlow
    if lhs >= rhs - JUMP_TOL:
        return True, True, None
    required = fbar - s0 * (xbar - xlow)
    return False, True, Violation(
        xlow, flow, required, f"back line from xbar={xbar:.9g}"
    )


def _fenced_backline(
    f: PiecewiseLinearFn, fence: np.ndarray, x: float, threshold: float, s0: float
) -> tuple[bool, Violation | None]:
    """Back-line test around x between its neighbors in the sorted array
    fence, which holds x.  Vacuously true when x is an end of the fence: no
    room on one side, nothing to test.  Returns (ok, witness)."""
    p = int(np.searchsorted(fence, x))
    if p == 0 or p == fence.size - 1:
        return True, None
    ok, _fired, witness = _backline_check(f, float(fence[p - 1]), x, float(fence[p + 1]), threshold, s0)
    return ok, witness


def check_bend_condition(
    f: PiecewiseLinearFn, sc: ScaleParams, ps: PointSet, j: int
) -> PropertyReport:
    """Back-line dominance at the j-th point, j in the last index block.

    With k = j - (N - n0), 1 <= k < n0: if the slope anywhere strictly between
    x_j and its next distinct neighbor value exceeds s0 - k, the function on
    [previous neighbor value, x_j) must dominate the s0-line drawn back from
    that location.  Vacuously true when no slope fires or when x_j has no
    distinct neighbor value on one side.
    """
    k = j - (sc.N - sc.n0)
    if not 1 <= k < sc.n0:
        raise ValueError(
            f"index j={j} outside the eligible last block "
            f"{{{sc.N - sc.n0 + 1}, ..., {sc.N - 1}}}"
        )
    if j > len(ps):
        raise ValueError(f"index j={j} exceeds point count {len(ps)}")
    xj = ps.points[j - 1]
    if f.jump_at(xj) <= JUMP_TOL:
        raise ValueError(f"no discontinuity at x_{j}={xj!r}")
    rep = PropertyReport()
    rep.add(f"bend[j={j}]", *_fenced_backline(f, ps.distinct_values, xj, sc.s0 - k, sc.s0))
    return rep


@dataclass(frozen=True)
class GammaSets:
    """Jump-location structure for strict admissibility.

    ``gamma`` holds the a^t - 1 candidate jump locations; ``gamma1`` the
    unit-jump subset of size a^t - 2*a^{t-1}; ``gamma2`` the ordered tuple of
    a^{t-1} - 1 back-line locations (the n-th entry carries threshold
    s0 - n); ``gamma0`` is the remainder.
    """

    gamma: frozenset[float]
    gamma1: frozenset[float]
    gamma2: tuple[float, ...]

    @property
    def gamma0(self) -> frozenset[float]:
        return self.gamma - self.gamma1 - frozenset(self.gamma2)


def gamma_sets_from_points(ps: PointSet, sc: ScaleParams) -> GammaSets:
    """Canonical jump-location sets of the comparison function of ps.

    gamma = all point values except the first point; gamma1 = middle-block
    values; gamma2 = last-block values below the final index, ordered by
    index.  Requires pairwise distinct values so the cardinalities are exact.
    """
    if len(ps) != sc.N:
        raise ValueError(f"point set has {len(ps)} points, scale needs N={sc.N}")
    if not sc.integer_exact:
        raise ValueError("canonical jump-location sets need an integer-exact scale (a=3)")
    if len(set(ps.points)) != sc.N:
        raise ValueError("point values must be pairwise distinct")
    gamma = frozenset(ps.points[1:])
    gamma1 = frozenset(ps.points[i - 1] for i in sc.A1)
    gamma2 = tuple(ps.points[i - 1] for i in range(sc.N - sc.n0 + 1, sc.N))
    return GammaSets(gamma, gamma1, gamma2)


def check_strict_admissibility(
    g: PiecewiseLinearFn, sc: ScaleParams, gs: GammaSets
) -> PropertyReport:
    """Clauses of the strict jump-location property.

    a) every actual jump of g sits at a location in gamma;
    b) g jumps by at least 1 at every gamma1 location;
    c) for the n-th gamma2 location, the back-line test with threshold
       s0 - n, neighbors taken within gamma plus the interval ends.
    """
    if not sc.integer_exact:
        raise ValueError("strict admissibility checks need an integer-exact scale (a=3)")
    n_total = round(sc.a**sc.t) - 1
    n_unit = round(sc.a**sc.t) - 2 * sc.n0
    n_back = sc.n0 - 1
    if len(gs.gamma) != n_total:
        raise ValueError(f"gamma must have {n_total} locations, got {len(gs.gamma)}")
    if len(gs.gamma1) != n_unit or not gs.gamma1 <= gs.gamma:
        raise ValueError(f"gamma1 must be {n_unit} locations inside gamma")
    if len(gs.gamma2) != n_back or not frozenset(gs.gamma2) <= gs.gamma:
        raise ValueError(f"gamma2 must be {n_back} locations inside gamma")
    if gs.gamma1 & frozenset(gs.gamma2):
        raise ValueError("gamma1 and gamma2 must be disjoint")

    rep = PropertyReport()
    sorted_gamma = np.array(sorted(gs.gamma))

    # a jump is in gamma when the gamma location just above or below it is
    # within TOL; the first jump that misses both is the witness
    k = np.flatnonzero(g.jumps > JUMP_TOL)
    x = g.breakpoints[k]
    p = np.searchsorted(sorted_gamma, x)
    above = np.abs(sorted_gamma[np.minimum(p, sorted_gamma.size - 1)] - x) <= TOL
    below = np.abs(sorted_gamma[np.maximum(p - 1, 0)] - x) <= TOL
    miss = np.flatnonzero(~((above & (p < sorted_gamma.size)) | (below & (p > 0))))
    if miss.size:
        i = miss[0]
        rep.add("a", False, Violation(float(x[i]), float(g.jumps[k[i]]), 0.0, "jump outside gamma"))
    else:
        rep.add("a", True)

    unit = np.array(sorted(gs.gamma1))
    h = g.jumps_at(unit)
    bad_b = np.flatnonzero(h < 1.0 - JUMP_TOL)
    if bad_b.size:
        k = int(bad_b[0])
        rep.add("b", False, Violation(float(unit[k]), float(h[k]), 1.0))
    else:
        rep.add("b", True)

    fence = np.unique(np.concatenate([sorted_gamma, [0.0, 1.0]]))
    for n, xi in enumerate(gs.gamma2, start=1):
        ok, w = _fenced_backline(g, fence, xi, sc.s0 - n, sc.s0)
        if not ok:
            rep.add("c", False, replace(w, note=f"gamma2 index n={n}; {w.note}"))
            break
    else:
        rep.add("c", True)
    return rep


def check_all(f: PiecewiseLinearFn, sc: ScaleParams, ps: PointSet) -> PropertyReport:
    """The full admissibility suite of the comparison function f of ps.

    In report order: properties (i)-(vi); continuity of f at x_1; the bend
    condition at every eligible last-block index j, skipped ("no jump")
    where f does not jump at x_j; the strict clauses as strict-a, strict-b
    and strict-c, or one skipped "strict" entry when the canonical
    jump-location sets do not exist (tied values, or a != 3).
    """
    rep = check_properties(f, sc, ps)
    x1 = ps.points[0]
    h1 = f.jump_at(x1)
    rep.add("continuity[x1]", abs(h1) <= JUMP_TOL, Violation(x1, h1, 0.0))
    last = range(sc.N - sc.n0 + 1, sc.N)
    for j, h in zip(last, f.jumps_at(ps.values[sc.N - sc.n0 : sc.N - 1])):
        if h <= JUMP_TOL:
            rep.skip(f"bend[j={j}]", "no jump")
        else:
            rep.extend(check_bend_condition(f, sc, ps, j))
    try:
        gs = gamma_sets_from_points(ps, sc)
    except ValueError as exc:
        rep.skip("strict", str(exc))
    else:
        rep.extend(check_strict_admissibility(f, sc, gs), prefix="strict-")
    return rep
