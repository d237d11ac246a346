"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion NN PASS/FAIL`` line with the measured
numbers (visible under ``pytest -s``) and then asserts, so a plain ``pytest``
run is the pass/fail authority and the printed lines are the audit trail.
"""
from __future__ import annotations

import math
import time

import numpy as np

from stardis.admissibility import build_f, check_all, make_scale
from stardis.bounds import (
    chi_bounds,
    harmonic_tail_bound_check,
    optimize_constant,
    p_function,
    q_function,
    strict_bound,
)
from stardis.plf import make_point_set, star_discrepancy
from stardis.sequences import trajectory, van_der_corput
from stardis.variational import per_interval_bound, q2_shape_sweep, solve_profile_qp

HEADLINE_C = 0.065664679
HEADLINE_A = 3.62079
PRIOR_C = 0.0646363
PRIOR_A = 3.71866


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_headline_constant():
    t0 = time.perf_counter()
    a_star, c_star = optimize_constant("strict", 3.0, 3.7)
    dt = time.perf_counter() - t0
    ok = (
        abs(c_star - HEADLINE_C) < 1e-5
        and abs(a_star - HEADLINE_A) < 5e-4
        and dt < 1.0
    )
    assert _line(
        1,
        ok,
        f"c={c_star:.9g} (target {HEADLINE_C} +-1e-5), a={a_star:.9g}"
        f" (target {HEADLINE_A} +-5e-4), {dt:.3f} s",
    )


def test_criterion_02_prior_constant():
    t0 = time.perf_counter()
    a_star, c_star = optimize_constant("strong", 3.0, 3.8)
    dt = time.perf_counter() - t0
    ok = (
        abs(c_star - PRIOR_C) < 1e-5
        and abs(a_star - PRIOR_A) < 5e-4
        and dt < 1.0
    )
    assert _line(
        2,
        ok,
        f"c={c_star:.9g} (target {PRIOR_C} +-1e-5), a={a_star:.9g}"
        f" (target {PRIOR_A} +-5e-4), {dt:.3f} s",
    )


def test_criterion_03_formula_arbitration():
    # the adopted denominator (prefactor 16) reproduces the headline constant;
    # the rejected transcription (prefactor a, same numerator) lands nowhere
    # near it, pinning which formula this package ships
    _, c_adopted = optimize_constant("strict", 3.0, 3.7)
    grid = np.linspace(3.0001, 3.7, 200001)
    lam = np.log1p(1.0 / (grid - 2.0))
    num = (grid - 2.0) * (12.0 * grid + 9.0 + (grid - 2.0) * (4.0 * grid - 3.0) * lam)
    den = grid * (grid - 0.5) ** 2 * (3.0 + (grid - 2.0) * lam)
    c_variant = float(np.max(num / den / (2.0 * np.log(grid))))
    ok = abs(c_adopted - HEADLINE_C) < 1e-5 and abs(c_variant - HEADLINE_C) > 1e-4
    assert _line(
        3,
        ok,
        f"adopted c={c_adopted:.9g} on target; rejected transcription peaks at"
        f" c={c_variant:.9g}, off by {abs(c_variant - HEADLINE_C):.3g} (> 1e-4)",
    )


def test_criterion_04_chi_ordering_and_q_sign():
    grid = np.linspace(3.0, 3.7, 1001)[1:]  # 1000 points in (3, 3.7]
    worst_gap = max(
        (lambda b: b.chi_crit - b.chi_min)(chi_bounds(float(a), 3)) for a in grid
    )
    q_max = max(q_function(float(a)) for a in grid)
    q_end = q_function(3.7)
    ok = worst_gap <= 0.0 and q_max < 0.0 and abs(q_end + 0.023) < 5e-3
    assert _line(
        4,
        ok,
        f"max(chi_crit-chi_min)={worst_gap:.3g} (<=0), max q={q_max:.6g} (<0),"
        f" q(3.7)={q_end:.6g} (target -0.023 +-5e-3)",
    )


def test_criterion_05_qp_against_closed_form():
    worst_eq = 0.0
    worst_chi1 = 0.0
    min_gap = math.inf
    monotone = True
    ok = True
    for a in (3.0, 3.3, 3.62079, 3.7):
        closed = strict_bound(a)
        gaps = []
        for t in range(3, 9):
            sol = solve_profile_qp(a, t)
            gaps.append(sol.objective - closed)
            ok &= sol.objective >= closed - 1e-10
            worst_chi1 = max(worst_chi1, abs(sol.chi1 - chi_bounds(a, t).chi_min))
            s_abs = a ** (t - 1) * (a - 2.0)
            steps = np.arange(1, sol.chi2.size + 1, dtype=float)
            an = s_abs * (steps + s_abs) / (2.0 * (steps + 2.0 * s_abs))
            worst_eq = max(
                worst_eq, float(np.max(np.abs(an * sol.chi2 - s_abs / 4.0 * sol.chi0)))
            )
        min_gap = min(min_gap, min(gaps))
        monotone &= all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    ok &= worst_chi1 <= 1e-12 and worst_eq <= 1e-9 and monotone
    assert _line(
        5,
        ok,
        f"min gap={min_gap:.3g} (>=-1e-10), |chi1-chi_min|<={worst_chi1:.3g}"
        f" (<=1e-12), equalization residual<={worst_eq:.3g} (<=1e-9),"
        f" gaps nonincreasing in t: {monotone}",
    )


def test_criterion_06_p_matches_bound_at_floor():
    worst = 0.0
    for a in (3.1, 3.35, 3.62079, 3.7):
        for t in range(2, 11):
            chi1 = chi_bounds(a, t).chi_min
            worst = max(worst, abs(p_function(a, t, chi1) - strict_bound(a)))
    ok = worst <= 1e-12
    assert _line(6, ok, f"max |p(a,t,chi_min) - bound(a)|={worst:.3g} (<=1e-12)")


def _brute_star(values) -> float:
    y = np.sort(np.asarray(values, dtype=float))
    n = y.size
    atoms = np.unique(y)
    below = np.searchsorted(y, atoms, side="left")
    upto = np.searchsorted(y, atoms, side="right")
    vals = np.maximum(upto / n - atoms, atoms - below / n)
    return float(np.max(vals))


def test_criterion_07_exact_discrepancy():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        ps = make_point_set(rng.random(n))
        worst = max(worst, abs(star_discrepancy(ps) - _brute_star(ps.values)))
    lattice_worst = 0.0
    for n in range(1, 65):
        pts = np.arange(1, 2 * n, 2) / (2 * n)
        lattice_worst = max(
            lattice_worst, abs(star_discrepancy(make_point_set(pts)) - 0.5 / n)
        )
    ok = worst <= 1e-12 and lattice_worst <= 1e-15
    assert _line(
        7,
        ok,
        f"max |exact-brute|={worst:.3g} over 1000 sets (<=1e-12);"
        f" centered lattice max dev={lattice_worst:.3g} (<=1e-15)",
    )


def test_criterion_08_admissibility_suite():
    t0 = time.perf_counter()
    ok = True
    sets = bends = 0
    for t_exp, count, seed0 in ((2, 1000, 0), (3, 200, 10_000)):
        sc = make_scale(3.0, t_exp)
        for k in range(count):
            ps = make_point_set(np.random.default_rng(seed0 + k).random(sc.N))
            f = build_f(ps, sc)
            rep = check_all(f, sc, ps)
            heads = [name for name, _, _ in rep.entries]
            ok &= rep.all_ok and heads[-3:] == ["strict-a", "strict-b", "strict-c"]
            ok &= abs(f.jump_at(ps.points[0])) <= 1e-12
            bends += sum(1 for name, status, _ in rep.entries if name.startswith("bend") and status != "skipped")
            sets += 1
    dt = time.perf_counter() - t0
    assert _line(
        8,
        ok,
        f"{sets} point sets (1000 at t=2, 200 at t=3): properties, continuity"
        f" at x1, {bends} bend checks and the strict clauses all pass, {dt:.1f} s",
    )


def test_criterion_09_sweep_dominates_closed_form():
    ok = True
    min_margin = math.inf
    for n in (1, 2):
        for L in (0.01, 0.05, 0.1):
            bound = per_interval_bound("Q2", 3.0, 2, L, n=n)
            m100 = q2_shape_sweep(3.0, 2, n, L, 100)
            m400 = q2_shape_sweep(3.0, 2, n, L, 400)
            m1600 = q2_shape_sweep(3.0, 2, n, L, 1600)
            ok &= m400 >= bound - 1e-9 and m1600 >= bound - 1e-9
            ok &= m100 >= m400 >= m1600
            min_margin = min(min_margin, m400 - bound)
    assert _line(
        9,
        ok,
        f"sweep(400) - closed form >= {min_margin:.3g} (>= -1e-9) over"
        f" n in {{1,2}} x L in {{0.01,0.05,0.1}}; minima nonincreasing"
        f" under 100->400->1600 refinement",
    )


def test_criterion_10_harmonic_tail_bound():
    ok = True
    for t in range(2, 13):
        total, bound = harmonic_tail_bound_check(3.0, t)
        ok &= total <= bound
    total2, bound2 = harmonic_tail_bound_check(3.0, 2)
    ok &= abs(total2 - 0.45) <= 1e-15 and abs(bound2 - math.log(2.0)) <= 1e-15
    assert _line(
        10,
        ok,
        f"sum<=bound for t=2..12; t=2 gives ({total2:.17g}, {bound2:.17g})"
        f" vs (0.45, ln 2) at 1e-15",
    )


def test_criterion_11_trajectory_peak():
    t0 = time.perf_counter()
    recs = trajectory(van_der_corput(2, 100_000), "dyadic")
    dt = time.perf_counter() - t0
    peak = recs[-1].running_max
    ok = peak > 0.0657 and dt < 10.0
    assert _line(
        11,
        ok,
        f"max N*dstar/ln N = {peak:.9g} over dyadic N<=1e5 (> 0.0657), {dt:.2f} s",
    )
