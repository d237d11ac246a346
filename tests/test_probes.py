"""Differential tests of the vectorized back-line kernel.

Two oracles test it.  The full-scan one walks every segment of f in Python
and probes each affine piece met by a window.  The per-entry one is the
windowed formulation the kernel replaced: two binary searches per window and
one ``argmax``/``argmin`` per entry.  The per-entry probes must match the
full scan bit for bit and in the same order, and the kernel must give every
entry the same (ok, fired, witness) as both oracles, bit for bit.
"""
from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest

from stardis.admissibility import (
    Violation,
    _backlines,
    _fenced_backlines,
    _tolerance,
    build_f,
    check_strict_admissibility,
    gamma_sets_from_points,
    make_scale,
)
from stardis.plf import PiecewiseLinearFn, make_point_set
from test_envelope import tied_points

# ------------------------------------------------------------ full-scan oracle


def _probe_values_scan(f: PiecewiseLinearFn, lo: float, hi: float) -> list[tuple[float, float]]:
    cuts = [lo] + [b for b in f.breakpoints.tolist() if lo < b < hi] + [hi]
    probes: list[tuple[float, float]] = []
    for u, v in zip(cuts[:-1], cuts[1:]):
        fu = f.value(u)
        probes.append((u, fu + f.jump_at(u)))
        probes.append((v, f.value(v)))
    return probes


def _firing_probes_scan(
    f: PiecewiseLinearFn, lo: float, hi: float, threshold: float
) -> list[tuple[float, float]]:
    bp = f.breakpoints.tolist()
    probes: list[tuple[float, float]] = []
    for u, v, slope in zip(bp[:-1], bp[1:], f.slopes.tolist()):
        a, b = max(u, lo), min(v, hi)
        if a >= b:
            continue
        if slope <= threshold:
            continue
        fa = f.value(a) + f.jump_at(a)
        probes.append((a, fa))
        probes.append((b, f.value(b)))
    return probes


def _backline_check_scan(f, lo, jump_x, hi, threshold, s0, tol):
    firing = _firing_probes_scan(f, jump_x, hi, threshold)
    if not firing:
        return True, False, None
    xbar, fbar = max(firing, key=lambda p: p[1] - s0 * p[0])
    rhs = fbar - s0 * xbar
    xlow, flow = min(_probe_values_scan(f, lo, jump_x), key=lambda p: p[1] - s0 * p[0])
    if flow - s0 * xlow >= rhs - tol:
        return True, True, None
    return False, True, (xlow, flow, fbar - s0 * (xbar - xlow), f"back line from xbar={xbar:.9g}")


# ----------------------------------------------------------- per-entry oracle


def _probes(
    f: PiecewiseLinearFn, lo: float, hi: float, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(x, limit-value) probes covering every affine piece of f on (lo, hi):
    the segments meeting the window, by two binary searches, clipped to it;
    with a ``threshold`` only pieces whose slope exceeds it.  Each piece
    gives its limit from the right at its left end and its limit from the
    left at its right end.  Requires lo < hi."""
    bp = f.breakpoints
    k = np.arange(
        int(np.searchsorted(bp, lo, side="right")) - 1,
        int(np.searchsorted(bp, hi, side="left")),
    )
    if threshold is not None:
        k = k[f.slopes[k] > threshold]
    u = np.maximum(bp[k], lo)
    v = np.minimum(bp[k + 1], hi)
    xs = np.column_stack([u, v]).ravel()
    ys = np.column_stack([f.values_at(u) + f.jumps_at(u), f.values_at(v)]).ravel()
    return xs, ys


def _backline_check(f, lo, jump_x, hi, threshold, s0, tol) -> tuple[bool, bool, Violation | None]:
    """One back-line test around the jump at jump_x: (ok, fired, witness)."""
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
    if lhs >= rhs - tol:
        return True, True, None
    required = fbar - s0 * (xbar - xlow)
    return False, True, Violation(xlow, flow, required, f"back line from xbar={xbar:.9g}")


def _fenced_backline(f, fence, x, threshold, s0, tol) -> tuple[bool, bool, Violation | None]:
    """The back-line test around x between its neighbours in the sorted
    fence; vacuous, unfired, at an end of the fence."""
    p = int(np.searchsorted(fence, x))
    if p == 0 or p == fence.size - 1:
        return True, False, None
    return _backline_check(f, float(fence[p - 1]), x, float(fence[p + 1]), threshold, s0, tol)


# --------------------------------------------------------------------- inputs


def _tied(t: int, level: int, seed: int) -> list[float]:
    rng = random.Random(f"probes:{t}:{seed}")
    return [math.floor(rng.random() * level) / level for _ in range(3**t)]


def _cases():
    for t in (3, 4, 5):
        sc = make_scale(3.0, t)
        yield t, "uniform", make_point_set(np.random.default_rng(100 + t).random(sc.N))
        yield t, "tied", make_point_set(_tied(t, 16 if t < 5 else 32, t))


CASES = list(_cases())


def _windows(f: PiecewiseLinearFn, ps, tol: float, rng: np.random.Generator):
    """(lo, hi) pairs with lo < hi: neighbor point values around each point,
    breakpoint pairs carrying jumps (above tol) at either end, free interior
    pairs, and windows reaching 0 or 1."""
    return [(lo, hi) for lo, hi in _raw_windows(f, ps, tol, rng) if lo < hi]


def _raw_windows(f: PiecewiseLinearFn, ps, tol: float, rng: np.random.Generator):
    vals = ps.distinct_values
    inner = np.arange(1, vals.size - 1)
    for p in np.sort(rng.choice(inner, size=min(60, inner.size), replace=False)):
        yield float(vals[p - 1]), float(vals[p])
        yield float(vals[p]), float(vals[p + 1])
    bp = f.breakpoints
    jumpy = bp[:-1][np.abs(f.jumps) > tol]
    for _ in range(15):
        lo, hi = sorted(rng.choice(jumpy, size=2, replace=False))
        yield float(lo), float(hi)
        lo, hi = sorted(rng.random(2))
        yield float(lo), float(hi)
        k = int(rng.integers(0, bp.size - 1))
        yield float(bp[k]), float(rng.uniform(bp[k], 1.0))
        yield float(rng.uniform(0.0, bp[k + 1])), float(bp[k + 1])
    yield 0.0, 1.0
    yield 0.0, float(bp[1])
    yield float(bp[-2]), 1.0


def _as_list(xs: np.ndarray, ys: np.ndarray) -> list[tuple[float, float]]:
    return list(zip(xs.tolist(), ys.tolist()))


def _bits(probes: list[tuple[float, float]]) -> bytes:
    return np.asarray(probes, dtype=float).reshape(-1, 2).tobytes()


# ---------------------------------------------------------------------- tests


@pytest.mark.parametrize("t,kind,ps", CASES, ids=[f"t{t}-{kind}" for t, kind, _ in CASES])
def test_windowed_probes_match_full_scan(t, kind, ps):
    sc = make_scale(3.0, t)
    f = build_f(ps, sc)
    rng = np.random.default_rng(t)
    slopes = np.unique(f.slopes)
    # the last threshold lies below every slope, so every piece fires
    thresholds = [sc.s0 - 1, sc.s0 - sc.n0 + 1, float(np.median(slopes)), float(slopes[0]) - 1.0]
    windows = _windows(f, ps, _tolerance(f, sc), rng)
    on_bp = sum(lo in f.breakpoints and hi in f.breakpoints for lo, hi in windows)
    assert on_bp >= 15  # breakpoint-ended windows are really exercised
    fired = 0
    for lo, hi in windows:
        oracle = _probe_values_scan(f, lo, hi)
        got = _as_list(*_probes(f, lo, hi))
        assert got == oracle, (lo, hi)
        assert _bits(got) == _bits(oracle), (lo, hi)
        for thr in thresholds:
            oracle = _firing_probes_scan(f, lo, hi, thr)
            got = _as_list(*_probes(f, lo, hi, thr))
            assert got == oracle, (lo, hi, thr)
            assert _bits(got) == _bits(oracle), (lo, hi, thr)
            fired += bool(got)
    assert fired > 0


@pytest.mark.parametrize("t,kind,ps", CASES, ids=[f"t{t}-{kind}" for t, kind, _ in CASES])
def test_backline_check_matches_full_scan(t, kind, ps):
    sc = make_scale(3.0, t)
    f = build_f(ps, sc)
    vals = ps.distinct_values
    tol = _tolerance(f, sc)
    outcomes = set()
    for p in range(1, vals.size - 1):
        lo, x, hi = float(vals[p - 1]), float(vals[p]), float(vals[p + 1])
        for k in (1, sc.n0 // 2, sc.n0 - 1):
            ok, fired, w = _backline_check(f, lo, x, hi, sc.s0 - k, sc.s0, tol)
            want = _backline_check_scan(f, lo, x, hi, sc.s0 - k, sc.s0, tol)
            got_w = None if w is None else (w.where, w.measured, w.threshold, w.note)
            assert (ok, fired, got_w) == want, (lo, x, hi, k)
            outcomes.add((ok, fired))
    assert any(fired for _, fired in outcomes)


def test_probes_on_a_hand_function():
    # jumps at 0.25 and 0.5, slopes -1 / -3 / -2
    f = PiecewiseLinearFn([0.0, 0.25, 0.5, 1.0], [-1.0, -3.0, -2.0], [0.0, 2.0, 1.0], 0.0)
    xs, ys = _probes(f, 0.25, 0.5)
    # one piece, the jump at 0.25 counted from the right, none from 0.5
    assert xs.tolist() == [0.25, 0.5]
    assert ys.tolist() == [-0.25 + 2.0, -0.25 + 2.0 - 0.75]
    xs, _ = _probes(f, 0.1, 0.9, threshold=-2.5)
    assert xs.tolist() == [0.1, 0.25, 0.5, 0.9]
    xs, _ = _probes(f, 0.1, 0.9, threshold=-1.0)  # ties do not fire
    assert xs.size == 0


# ------------------------------------------------ kernel against both oracles

KERNEL_CASES = [(3.0, t, kind) for t in range(2, 7) for kind in ("uniform", "tied")]
KERNEL_CASES += [(a, t, "uniform") for a in (3.5, 3.62079) for t in range(2, 7)]
KERNEL_IDS = [f"a{a:g}-t{t}-{kind}" for a, t, kind in KERNEL_CASES]


def _key(ok, fired, w) -> tuple:
    """An entry's outcome with every float as its exact hex form."""
    if w is not None and not isinstance(w, tuple):
        w = (w.where, w.measured, w.threshold, w.note)
    return bool(ok), bool(fired), None if w is None else (*(float(v).hex() for v in w[:3]), w[3])


@functools.lru_cache(maxsize=None)
def _kernel_case(a: float, t: int, kind: str):
    """f of the case's point set, its bend entries and its free entries, with
    the kernel's outcome for each.

    Bend entries are the last-block points where f jumps, fenced by the
    distinct values, with thresholds s0 - k.  Free entries sit at every inner
    distinct value with thresholds s0 - 1 and one below every slope, so that
    every piece fires.
    """
    sc = make_scale(a, t)
    pts = np.random.default_rng(0).random(sc.N) if kind == "uniform" else tied_points(t, 0)
    ps = make_point_set(pts)
    f = build_f(ps, sc)
    tol = _tolerance(f, sc)
    fence = ps.distinct_values
    js = np.arange(sc.N - sc.n0 + 1, sc.N)
    js = js[f.jumps_at(ps.values[js - 1]) > tol]
    bend = (ps.values[js - 1], sc.s0 - (js - (sc.N - sc.n0)))
    p = np.repeat(np.arange(1, fence.size - 1), 2)
    free = (fence[p - 1], fence[p], fence[p + 1], np.tile([sc.s0 - 1, f.slopes.min() - 1], p.size // 2))
    got_bend = list(zip(*_fenced_backlines(f, fence, *bend, sc.s0, tol)))
    got_free = list(zip(*_backlines(f, *free, sc.s0, tol)))
    return sc, f, tol, fence, bend, free, got_bend, got_free


@pytest.mark.parametrize("a,t,kind", KERNEL_CASES, ids=KERNEL_IDS)
def test_kernel_matches_per_entry_oracle(a, t, kind):
    sc, f, tol, fence, bend, free, got_bend, got_free = _kernel_case(a, t, kind)
    for x, thr, got in zip(*(arr.tolist() for arr in bend), got_bend):
        assert _key(*got) == _key(*_fenced_backline(f, fence, x, thr, sc.s0, tol)), (x, thr)
    for lo, x, hi, thr, got in zip(*(arr.tolist() for arr in free), got_free):
        assert _key(*got) == _key(*_backline_check(f, lo, x, hi, thr, sc.s0, tol)), (lo, x, hi, thr)


@pytest.mark.parametrize("a,t,kind", KERNEL_CASES, ids=KERNEL_IDS)
def test_kernel_matches_full_scan(a, t, kind):
    # the scan walks all of f once per entry, so above t = 4 it checks every
    # fired bend entry and 150 free ones, evenly spaced; the per-entry oracle
    # covers the rest
    sc, f, tol, fence, bend, free, got_bend, got_free = _kernel_case(a, t, kind)
    p = np.searchsorted(fence, bend[0])
    entries = [
        (fence[q - 1], x, fence[q + 1], thr, got)
        for q, x, thr, got in zip(p.tolist(), *bend, got_bend)
        if 0 < q < fence.size - 1 and (t <= 4 or got[1])
    ]
    entries += list(zip(*free, got_free))[:: 1 if t <= 4 else max(1, len(got_free) // 150)]
    assert entries
    for lo, x, hi, thr, got in entries:
        want = _backline_check_scan(f, float(lo), float(x), float(hi), float(thr), sc.s0, tol)
        assert _key(*got) == _key(*want), (lo, x, hi, thr)


def test_kernel_cases_fire_and_fail():
    bend = [got for case in KERNEL_CASES for got in _kernel_case(*case)[6]]
    free = [got for case in KERNEL_CASES for got in _kernel_case(*case)[7]]
    assert sum(not ok for ok, _fired, _w in bend) >= 150
    assert sum(not ok for ok, _fired, _w in free) >= 150
    outcomes = {(bool(ok), bool(fired), w is None) for ok, fired, w in bend + free}
    assert outcomes == {(True, False, True), (True, True, True), (False, True, False)}


def test_kernel_clips_windows_at_fence_points_off_the_breakpoints():
    # jumps at 0.2 and 0.5; slopes -1 / -5 / -2 / -6 / -1; s0 = -3.  No fence
    # point but 0.5 is a breakpoint, so both windows are clipped.
    g = PiecewiseLinearFn(
        [0.0, 0.2, 0.5, 0.6, 0.9, 1.0], [-1.0, -5.0, -2.0, -6.0, -1.0], [0.0, 0.3, 1.0, 0.0, 0.2], 1.0
    )
    fence = np.array([0.1, 0.35, 0.5, 0.75, 0.95])
    x, thr, tol = np.array([0.1, 0.5, 0.95]), np.array([-3.0, -3.0, -3.0]), 1e-12
    ok, fired, w = _fenced_backlines(g, fence, x, thr, -3.0, tol)
    assert ok.tolist() == [True, False, True] and fired.tolist() == [False, True, False]
    assert w[0] is None and w[2] is None
    # the slope -2 piece fires on (0.5, 0.6]; its worst point is 0.6, and the
    # window (0.35, 0.5) reaches its minimum of f(x) + 3x at 0.5
    assert (w[1].where, w[1].note) == (0.5, "back line from xbar=0.6")
    assert w[1].measured == pytest.approx(-0.4) and w[1].threshold == pytest.approx(0.7)
    # hi = 0.55 cuts the firing piece: xbar moves to the cut
    ok, fired, w = _backlines(g, np.array([0.35]), np.array([0.5]), np.array([0.55]), np.array([-3.0]), -3.0, tol)
    assert not ok[0] and fired[0] and w[0].note == "back line from xbar=0.55"
    assert w[0].threshold == pytest.approx(0.65)
    # lo = 0.3 puts the left probes at 0.3, not at the breakpoint 0.2
    entries = [(0.35, 0.5, 0.75), (0.35, 0.5, 0.55), (0.3, 0.5, 0.75), (0.05, 0.2, 0.45), (0.1, 0.5, 0.95)]
    lo, xs, hi = (np.array(c) for c in zip(*entries))
    for thr in (-1.5, -3.0, -5.5, -7.0):
        got = zip(*_backlines(g, lo, xs, hi, np.full(lo.size, thr), -3.0, tol))
        for (l, x, h), out in zip(entries, got):
            assert _key(*out) == _key(*_backline_check(g, l, x, h, thr, -3.0, tol)), (l, x, h, thr)
            assert _key(*out) == _key(*_backline_check_scan(g, l, x, h, thr, -3.0, tol)), (l, x, h, thr)


def test_strict_c_reports_the_first_failing_gamma2_index():
    # random g on a t = 3 set, breakpoints at some gamma locations and at
    # points off the fence; strict-c must match a loop over gamma2 that
    # stops at the first failing index
    sc = make_scale(3.0, 3)
    rng = np.random.default_rng(7)
    ps = make_point_set(rng.permutation(np.arange(1, sc.N + 1) / (sc.N + 1)))
    gs = gamma_sets_from_points(ps, sc)
    fence = np.unique(np.concatenate([sorted(gs.gamma), [0.0, 1.0]]))
    first = []
    for _ in range(150):
        bp = np.unique(np.r_[0.0, 1.0, rng.choice(fence[1:-1], 12, replace=False), rng.random(6)])
        m = bp.size - 1
        g = PiecewiseLinearFn(bp, rng.integers(-40, -8, m).astype(float), rng.random(m) * 3, rng.random())
        tol = _tolerance(g, sc)
        want = None
        for n, xi in enumerate(gs.gamma2, start=1):
            ok, _fired, w = _fenced_backline(g, fence, xi, sc.s0 - n, sc.s0, tol)
            if not ok:
                want = (n, w)
                break
        rep = check_strict_admissibility(g, sc, gs)
        if want is None:
            assert rep.passed("c")
        else:
            n, w = want
            got = rep.witness("c")
            assert got.note == f"gamma2 index n={n}; {w.note}"
            assert _key(False, True, got)[2][:3] == _key(False, True, w)[2][:3]
        first.append(0 if want is None else want[0])
    assert 0 in first and 1 in first and max(first) > 1
