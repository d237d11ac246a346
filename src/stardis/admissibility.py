"""Two-scale comparison functions and their admissibility checks.

Given a prefix of length N = floor(a^t), the index range splits into the first
block A0, the last block A2 (both of size floor(a^{t-1})), and the middle A1.
The comparison function is

    f(x) = max_{n in A2} D_n(x) - max_{n in A0} D_n(x),

a piecewise-linear function with nonnegative jumps, steep negative slopes, and
unit jumps at the middle-block points.  This module builds f, with exact
slopes and jump locations and values that round within ``_tolerance``, and
verifies the structural properties that make it a member of the admissible
family, including the slope-threshold/back-line ("bend") condition and the
strict variant with an explicit jump-location set.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

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

    def add_first(self, prop: str, bad: np.ndarray, witness: Callable[[int], Violation]) -> None:
        """Pass when the mask ``bad`` is all false, else fail with the witness
        of its first true index."""
        hit = np.flatnonzero(bad)
        self.add(prop, not hit.size, witness(int(hit[0])) if hit.size else None)

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
    """Upper envelope over A2 minus upper envelope over A0.

    Slopes and jump locations come out exact; values round, within
    ``_tolerance(f, sc)``."""
    if len(ps) != sc.N:
        raise ValueError(f"point set has {len(ps)} points, scale needs N={sc.N}")
    return _envelope_max(ps, sc.A2) - _envelope_max(ps, sc.A0)


def _tolerance(f: PiecewiseLinearFn, sc: ScaleParams) -> float:
    """Rounding allowance of every value comparison on f: m a^t 2^-52, with
    m the segment count of f.

    Slopes and jump locations need none.  Every slope of f is an integer,
    stored exactly: D_n has slope -n, ``maximum`` selects slopes and ``-``
    subtracts small integers.  Every nonzero jump of f sits exactly on a
    point value, as a crossing's jump is max(fx+0.0, gx+0.0) - max(fx, gx) = 0.
    Values round: f's left values are a running sum, over its m segments,
    of jump + slope * width from f(0) = 0.  Width, product, increment and
    each partial sum round once, each by at most u = 2^-53 of its size.
    Properties (ii)-(iv) bound every partial sum by a^t, the slope terms by
    a^t and the increments by 2 a^t in total, so the sum errs by at most
    (m + 4) u a^t <= m a^t 2^-52 for m >= 4.  Each merge of the fold behind
    f repeats such a sum, with roundings that do not line up: on uniform
    and low-discrepancy inputs at t = 2..8 the drift of f(0), f(1) and the
    unit jumps at the middle-block points stays below 0.04 of this bound.
    """
    return f.slopes.size * sc.a**sc.t * 2.0**-52


def check_properties(f: PiecewiseLinearFn, sc: ScaleParams, ps: PointSet) -> PropertyReport:
    """Check structural properties (i)-(vi); reports, never raises.

    (i) endpoint zeros; (ii) |f| <= a^t; (iii) every jump nonnegative;
    (iv) slopes within [-a^t, s0]; (v) slope changes across jump-free
    breakpoints at most a^{t-1}; (vi) jump height >= 1 at each middle-block
    point.  Slopes are compared exactly, values up to ``_tolerance(f, sc)``.
    """
    rep = PropertyReport()
    tol = _tolerance(f, sc)
    at = sc.a**sc.t
    at1 = sc.a ** (sc.t - 1)
    bp = f.breakpoints
    left = f.left_values

    # (i) zeros at both ends
    if abs(f.anchor) > tol:
        rep.add("i", False, Violation(0.0, f.anchor, 0.0, "f(0) != 0"))
    elif abs(left[-1]) > tol:
        rep.add("i", False, Violation(1.0, float(left[-1]), 0.0, "f(1) != 0"))
    else:
        rep.add("i", True)

    # (ii) bounded by a^t; extremes of a PLF sit at segment endpoint limits
    mags = np.maximum(np.abs(left), np.concatenate([np.abs(left[:-1] + f.jumps), [0.0]]))
    k = int(np.argmax(mags))
    rep.add("ii", mags[k] <= at + tol, Violation(float(bp[k]), float(mags[k]), at))

    # (iii) no negative jump
    k = int(np.argmin(f.jumps))
    rep.add("iii", f.jumps[k] >= -tol, Violation(float(bp[k]), float(f.jumps[k]), 0.0))

    # (iv) slopes within [-a^t, s0]
    sl = f.slopes
    rep.add_first(
        "iv",
        (sl < -at) | (sl > sc.s0),
        lambda k: Violation(float(bp[k + 1]), float(sl[k]), sc.s0, f"range [{-at:g}, {sc.s0:g}]"),
    )

    # (v) consecutive slopes differ by at most a^{t-1} across jump-free breakpoints
    diffs = np.abs(np.diff(sl))
    bad = (np.abs(f.jumps[1:]) <= tol) & (diffs > at1)
    rep.add_first("v", bad, lambda k: Violation(float(bp[k + 1]), float(diffs[k]), at1))

    # (vi) unit jumps at middle-block points
    h = f.jumps_at(ps.values[sc.n0 : sc.N - sc.n0])  # A1 points present in ps
    rep.add_first(
        "vi",
        h < 1.0 - tol,
        lambda k: Violation(ps.points[sc.n0 + k], float(h[k]), 1.0, f"point index {sc.n0 + k + 1}"),
    )
    return rep


def _segments(bp: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entry, k) for every segment k of breakpoints bp that meets the window
    (lo[e], hi[e]) of entry e, grouped by entry in segment order.  Two binary
    searches give each window's ragged segment range; lo < hi makes it
    nonempty, and lo = hi leaves at most the segment holding lo."""
    first = np.searchsorted(bp, lo, side="right") - 1
    count = np.searchsorted(bp, hi, side="left") - first
    entry = np.repeat(np.arange(lo.size), count)
    return entry, first[entry] + np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count)


def _first_extreme(score: np.ndarray, group: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Index of the first extreme (``np.maximum`` or ``np.minimum``) of score
    within each run of equal ids in the nondecreasing array group, as
    argmax and argmin pick it."""
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    ext = ufunc.reduceat(score, starts)
    runs = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, score.size]))
    hit = np.flatnonzero(score == ext[runs])
    return hit[np.searchsorted(runs[hit], np.arange(starts.size))]


def _backlines(
    f: PiecewiseLinearFn,
    lo: np.ndarray,
    x: np.ndarray,
    hi: np.ndarray,
    threshold: np.ndarray,
    s0: float,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, list[Violation | None]]:
    """Back-line dominance tests around jumps at x, one entry per array index.

    Entry e fires when some point of (x[e], hi[e]) lies on a segment with
    slope above threshold[e] (ties do not fire; slopes are exact).  A fired
    entry passes when every point of [lo[e], x[e]) dominates the line of
    slope s0 drawn back from the worst firing point xbar:
    f(x) >= f(xbar) - s0*(xbar - x), up to the value tolerance ``tol``.

    Probes: each segment meeting a window is clipped to
    [max(b_k, lo), min(b_{k+1}, hi)] and probed at both ends, first by the
    limit from the right (value plus jump), then by the limit from the left.
    f(x) - s0*x is affine on the piece, so these are its extremes there.
    Boundary values are limits from inside the window, so a jump sitting
    exactly at lo, x or hi does not leak in: the dominance claim holds
    pointwise on the open interval and extends to its ends only by one-sided
    limits.  Ties go to the first probe in segment order.

    Bend and strict clause (c) both call this with the neighbours of x in a
    fence, but their fences differ: bend's is the distinct point values, so
    x_1 belongs to it, while strict-c's is gamma plus the ends 0 and 1, and
    gamma leaves out the first point.  Bend skips entries where f does not
    jump; strict-c tests every gamma2 location (ROADMAP item 12).  Requires
    x <= hi, and lo < x < hi wherever the threshold can fire.  Returns
    (ok, fired, witness) per entry; ``fired`` is False where no slope exceeds
    the threshold, which passes vacuously.
    """
    bp = f.breakpoints
    e_r, k_r = _segments(bp, x, hi)
    fire = f.slopes[k_r] > threshold[e_r]
    e_r, k_r = e_r[fire], k_r[fire]
    fired = np.zeros(x.size, dtype=bool)
    fired[e_r] = True
    ok = np.ones(x.size, dtype=bool)
    witness: list[Violation | None] = [None] * x.size
    if not e_r.size:
        return ok, fired, witness
    tested = np.flatnonzero(fired)
    e_l, k_l = _segments(bp, lo[tested], x[tested])
    e_l = tested[e_l]
    # right-window probes first, then left-window ones, each piece as (u, v)
    u = np.concatenate([np.maximum(bp[k_r], x[e_r]), np.maximum(bp[k_l], lo[e_l])])
    v = np.concatenate([np.minimum(bp[k_r + 1], hi[e_r]), np.minimum(bp[k_l + 1], x[e_l])])
    fu, fv = np.split(f.values_at(np.concatenate([u, v])), 2)
    xs = np.column_stack([u, v]).ravel()
    ys = np.column_stack([fu + f.jumps_at(u), fv]).ravel()
    score = ys - s0 * xs
    cut = 2 * e_r.size
    i_bar = _first_extreme(score[:cut], np.repeat(e_r, 2), np.maximum)
    i_low = cut + _first_extreme(score[cut:], np.repeat(e_l, 2), np.minimum)
    xbar, fbar, xlow, flow = xs[i_bar], ys[i_bar], xs[i_low], ys[i_low]
    bad = flow - s0 * xlow < fbar - s0 * xbar - tol
    ok[tested] = ~bad
    required = fbar - s0 * (xbar - xlow)
    rows = zip(tested[bad].tolist(), *(a[bad].tolist() for a in (xlow, flow, required, xbar)))
    for e, where, measured, need, bar in rows:
        witness[e] = Violation(where, measured, need, f"back line from xbar={bar:.9g}")
    return ok, fired, witness


def _fenced_backlines(
    f: PiecewiseLinearFn, fence: np.ndarray, x: np.ndarray, threshold: np.ndarray, s0: float, tol: float
) -> tuple[np.ndarray, np.ndarray, list[Violation | None]]:
    """:func:`_backlines` around each x[e] between its neighbours in the
    sorted array fence, which holds every x[e].  An entry at an end of the
    fence passes vacuously, unfired: no room on one side, nothing to test,
    so its window closes on x[e] and its threshold +inf fires nothing."""
    p = np.searchsorted(fence, x)
    lo = fence[np.maximum(p - 1, 0)]
    hi = fence[np.minimum(p + 1, fence.size - 1)]
    return _backlines(f, lo, x, hi, np.where((lo < x) & (x < hi), threshold, np.inf), s0, tol)


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
    tol = _tolerance(f, sc)
    if f.jump_at(xj) <= tol:
        raise ValueError(f"no discontinuity at x_{j}={xj!r}")
    ok, _fired, (w,) = _bends(f, sc, ps, np.array([j]), tol)
    rep = PropertyReport()
    rep.add(f"bend[j={j}]", bool(ok[0]), w)
    return rep


def _bends(
    f: PiecewiseLinearFn, sc: ScaleParams, ps: PointSet, js: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, list[Violation | None]]:
    """The bend tests at the last-block indices js, fenced by the distinct
    point values, with thresholds s0 - k for k = j - (N - n0)."""
    threshold = sc.s0 - (js - (sc.N - sc.n0))
    return _fenced_backlines(f, ps.distinct_values, ps.values[js - 1], threshold, sc.s0, tol)


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
    reason = _no_gamma_sets(ps, sc)
    if reason:
        raise ValueError(reason)
    gamma = frozenset(ps.points[1:])
    gamma1 = frozenset(ps.points[i - 1] for i in sc.A1)
    gamma2 = tuple(ps.points[i - 1] for i in range(sc.N - sc.n0 + 1, sc.N))
    return GammaSets(gamma, gamma1, gamma2)


def _no_gamma_sets(ps: PointSet, sc: ScaleParams) -> str | None:
    """Why ps has no canonical jump-location sets at scale sc, or None."""
    if len(ps) != sc.N:
        return f"point set has {len(ps)} points, scale needs N={sc.N}"
    if not sc.integer_exact:
        return "canonical jump-location sets need an integer-exact scale (a=3)"
    if ps.distinct_values.size != sc.N:
        return "point values must be pairwise distinct"
    return None


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
    return _strict(g, sc, np.array(sorted(gs.gamma)), np.array(sorted(gs.gamma1)), np.array(gs.gamma2))


def _strict(
    g: PiecewiseLinearFn, sc: ScaleParams, gamma: np.ndarray, gamma1: np.ndarray, gamma2: np.ndarray
) -> PropertyReport:
    """The strict clauses a-c on valid jump-location sets: gamma and gamma1
    as sorted arrays, gamma2 as an array in index order."""
    rep = PropertyReport()
    tol = _tolerance(g, sc)

    # jumps sit exactly on point values, so membership in gamma is exact
    k = np.flatnonzero(g.jumps > tol)
    x = g.breakpoints[k]
    rep.add_first(
        "a",
        ~np.isin(x, gamma),
        lambda i: Violation(float(x[i]), float(g.jumps[k[i]]), 0.0, "jump outside gamma"),
    )

    h = g.jumps_at(gamma1)
    rep.add_first("b", h < 1.0 - tol, lambda k: Violation(float(gamma1[k]), float(h[k]), 1.0))

    fence = np.unique(np.concatenate([gamma, [0.0, 1.0]]))
    n = np.arange(1, gamma2.size + 1)
    ok, _fired, w = _fenced_backlines(g, fence, gamma2, sc.s0 - n, sc.s0, tol)
    bad = np.flatnonzero(~ok)
    if bad.size:  # the first failing gamma2 index
        i = int(bad[0])
        rep.add("c", False, replace(w[i], note=f"gamma2 index n={i + 1}; {w[i].note}"))
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
    tol = _tolerance(f, sc)
    x1 = ps.points[0]
    h1 = f.jump_at(x1)
    rep.add("continuity[x1]", abs(h1) <= tol, Violation(x1, h1, 0.0))
    last = np.arange(sc.N - sc.n0 + 1, sc.N)
    jumps = f.jumps_at(ps.values[last - 1]) > tol
    ok, _fired, w = _bends(f, sc, ps, last[jumps], tol)
    tested = iter(zip(ok.tolist(), w))
    for j, jumping in zip(last.tolist(), jumps.tolist()):
        if jumping:
            rep.add(f"bend[j={j}]", *next(tested))
        else:
            rep.skip(f"bend[j={j}]", "no jump")
    reason = _no_gamma_sets(ps, sc)
    if reason:
        rep.skip("strict", reason)
    else:  # the canonical sets as slices of the point values, gamma and gamma1 sorted
        v, n0, N = ps.values, sc.n0, sc.N
        strict = _strict(f, sc, np.sort(v[1:]), np.sort(v[n0 : N - n0]), v[N - n0 : N - 1])
        rep.extend(strict, prefix="strict-")
    return rep
