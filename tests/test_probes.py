"""Differential tests of the windowed back-line probes.

The oracle is the full-scan formulation: walk every segment of f in Python
and probe each affine piece met by (lo, hi).  The windowed helper must give
the same probes, bit for bit and in the same order, and the back-line check
built on it the same verdicts and witnesses.
"""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from stardis.admissibility import _backline_check, _probes, _tolerance, build_f, make_scale
from stardis.plf import PiecewiseLinearFn, make_point_set

# ------------------------------------------------------------ full-scan oracle


def _probe_values_scan(f: PiecewiseLinearFn, lo: float, hi: float) -> list[tuple[float, float]]:
    bp = f.breakpoints
    cuts = [lo] + [float(b) for b in bp if lo < b < hi] + [hi]
    probes: list[tuple[float, float]] = []
    for u, v in zip(cuts[:-1], cuts[1:]):
        fu = f.value(u)
        probes.append((u, fu + f.jump_at(u)))
        probes.append((v, f.value(v)))
    return probes


def _firing_probes_scan(
    f: PiecewiseLinearFn, lo: float, hi: float, threshold: float
) -> list[tuple[float, float]]:
    bp = f.breakpoints
    probes: list[tuple[float, float]] = []
    for k in range(f.slopes.size):
        u, v = float(bp[k]), float(bp[k + 1])
        a, b = max(u, lo), min(v, hi)
        if a >= b:
            continue
        if f.slopes[k] <= threshold:
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
