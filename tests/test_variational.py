from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardis.bounds import _lam, chi_bounds, strict_bound
from stardis.variational import (
    _project_weighted,
    per_interval_bound,
    q2_shape_sweep,
    qp_gap_report,
    solve_profile_qp,
)


# -------------------------------------------------------- per-interval bounds


def test_per_interval_values():
    assert per_interval_bound("Q0", 3.0, 2, 0.1) == pytest.approx(0.0075, abs=1e-15)
    assert per_interval_bound("Q1", 3.0, 2, 0.1) == pytest.approx(
        0.1 * (4 - 3 * 0.1) / 16, abs=1e-15
    )
    assert per_interval_bound("Q2", 3.0, 2, 0.1, 1) == pytest.approx(6 / 700, abs=1e-15)
    assert per_interval_bound("Q2", 3.0, 2, 0.1, 2) == pytest.approx(
        0.01 * 3 * 5 / (2 * 8), abs=1e-15
    )


def test_per_interval_zero_length():
    assert per_interval_bound("Q0", 3.0, 2, 0.0) == 0.0
    assert per_interval_bound("Q1", 3.0, 2, 0.0) == 0.0
    assert per_interval_bound("Q2", 3.0, 2, 0.0, 1) == 0.0


def test_per_interval_q2_monotone_in_n():
    vals = [per_interval_bound("Q2", 3.0, 3, 0.1, n) for n in range(1, 9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_per_interval_validation():
    with pytest.raises(ValueError, match="class"):
        per_interval_bound("Q3", 3.0, 2, 0.1)
    with pytest.raises(ValueError, match="negative"):
        per_interval_bound("Q0", 3.0, 2, -0.1)
    with pytest.raises(ValueError, match="required for Q2"):
        per_interval_bound("Q2", 3.0, 2, 0.1)
    with pytest.raises(ValueError, match="required for Q2"):
        per_interval_bound("Q0", 3.0, 2, 0.1, 1)
    with pytest.raises(ValueError, match="step index"):
        per_interval_bound("Q2", 3.0, 2, 0.1, 3)
    with pytest.raises(ValueError, match="step index"):
        per_interval_bound("Q2", 3.0, 2, 0.1, 0)
    with pytest.raises(ValueError):
        per_interval_bound("Q0", 4.0, 2, 0.1)


# ----------------------------------------------------------------- the sweep


def test_sweep_edge_cases():
    assert q2_shape_sweep(3.0, 2, 1, 0.0, 200) == 0.0
    with pytest.raises(ValueError, match="negative"):
        q2_shape_sweep(3.0, 2, 1, -0.1, 200)
    with pytest.raises(ValueError, match="coarse"):
        q2_shape_sweep(3.0, 2, 1, 0.1, 99)
    with pytest.raises(ValueError, match="step index"):
        q2_shape_sweep(3.0, 2, 3, 0.1, 200)


def test_sweep_never_undercuts_bound():
    for n in (1, 2):
        for L in (0.05, 0.1):
            bound = per_interval_bound("Q2", 3.0, 2, L, n)
            assert q2_shape_sweep(3.0, 2, n, L, 100) >= bound - 1e-9


def test_sweep_monotone_under_refinement():
    # multiples of L/100 are a subset of multiples of L/400, so the swept
    # minimum can only decrease
    vals = [q2_shape_sweep(3.0, 2, 1, 0.1, g) for g in (100, 200, 400)]
    assert vals[0] >= vals[1] >= vals[2]
    for n in (1, 4, 8):
        for L in (0.01, 0.05, 0.1):
            vals = [q2_shape_sweep(3.0, 3, n, L, g) for g in (100, 400, 1600)]
            assert vals[0] >= vals[1] >= vals[2]


def test_sweep_converges_to_bound_from_above():
    bound = 6 / 700
    swept = q2_shape_sweep(3.0, 2, 1, 0.1, 400)
    assert bound - 1e-12 <= swept <= bound + 1e-5


def _ladder_sweep(a, t, n, L, grid):
    """Brute-force oracle: the 2-D sweep over every feasible (s1, s2) ladder
    pair and every slope switch point mu >= gamma.  Returns the minimum and
    the largest feasible slope."""
    at1, at = a ** (t - 1), a**t
    s_abs = at1 * (a - 2.0)
    s0 = -s_abs
    thr = s0 - float(n)
    ladder = np.arange(math.ceil(-at), math.floor(s0) + 1, dtype=float)
    ladder = np.unique(np.concatenate([ladder, [-at, s0, thr]]))
    ladder = ladder[(ladder >= -at - 1e-12) & (ladder <= s0 + 1e-12)]
    feasible = ladder[ladder <= thr + 1e-12]
    xs = np.arange(grid + 1) / grid * L
    gam, mu = np.meshgrid(xs[1:-1], xs, indexing="ij")
    valid = mu >= gam
    gam, mu = gam[valid], mu[valid]
    left = 0.5 * s_abs * gam * gam
    span1, span2 = mu - gam, L - mu
    best = math.inf
    for s1 in feasible:
        for s2 in feasible:
            y0 = -(s1 * span1 + s2 * span2)
            midy = -s2 * span2
            area = left + 0.5 * (y0 + midy) * span1 + 0.5 * midy * span2
            best = min(best, float(np.min(area)))
    return best, float(feasible[-1])


def test_sweep_matches_ladder_oracle():
    worst = 0.0
    cases = 0
    # at a = 3 + 1e-13 and t = 2, s0 - n lies within 1e-12 below an integer
    # of the ladder, which is then the largest allowed slope
    for a in (3.0, 3.0 + 1e-13, 3.3, 3.62):
        for t in (2, 3):
            for n in range(1, int(a ** (t - 1) - 1 + 1e-9) + 1):
                for L in (0.01, 0.05, 0.1):
                    want, s = _ladder_sweep(a, t, n, L, 100)
                    got, shape = q2_shape_sweep(a, t, n, L, 100, return_shape=True)
                    worst = max(worst, abs(got - want) / want)
                    assert shape.right_slopes == (s, s)
                    cases += 1
    assert cases == 135
    assert worst <= 1e-15


def test_sweep_best_shape_is_feasible():
    swept, shape = q2_shape_sweep(3.0, 2, 1, 0.1, 200, return_shape=True)
    assert shape.kind == "Q2" and shape.n == 1 and shape.length == 0.1
    assert 0.0 < shape.jump_position < 0.1
    assert shape.jump_height > 0.0
    # both right slopes at or below the bend threshold s0 - n = -4
    assert all(s <= -4.0 + 1e-12 for s in shape.right_slopes)
    assert shape.left_slope == -3.0
    assert shape.bound() <= swept + 1e-12
    # the optimal jump position for the two-triangle shape is L(|s0|+n)/(2|s0|+n)
    assert shape.jump_position == pytest.approx(0.1 * 4 / 7, abs=0.1 / 200 + 1e-12)


# ---------------------------------------------------------------------- QP


def test_qp_frozen_objectives():
    assert solve_profile_qp(3.0, 3).objective == pytest.approx(
        0.14143631395230732, abs=1e-9
    )
    assert solve_profile_qp(3.3, 4).objective == pytest.approx(
        0.15623246535484028, abs=1e-9
    )
    assert solve_profile_qp(3.62079, 5).objective == pytest.approx(
        0.1691188500122761, abs=1e-9
    )
    assert solve_profile_qp(3.7, 3).objective == pytest.approx(
        0.17355089578411947, abs=1e-9
    )


def test_qp_middle_block_quadratic_convex_and_floor_pinned():
    # the facts that make chi1 = chi_min in solve_profile_qp: the reduced
    # quadratic's leading coefficient is positive and its critical point
    # lies at or below the box floor
    for a in np.linspace(3.0, 3.7, 701):
        a = float(a)
        for t in range(1, 13):
            at1 = a ** (t - 1)
            lead = (a - 2.0) ** 3 * at1**2 / (2.0 * (3.0 + (a - 2.0) * _lam(a))) - at1**2 * (
                a - 2.0
            ) / 16.0
            assert lead > 0.0
            cb = chi_bounds(a, t)
            assert cb.chi_crit <= cb.chi_min


def test_qp_pins_chi1_at_box_floor():
    for a in (3.0, 3.3, 3.7):
        for t in (2, 4):
            sol = solve_profile_qp(a, t)
            assert sol.chi1 == chi_bounds(a, t).chi_min


def test_qp_objective_dominates_closed_form():
    for a in (3.0, 3.3, 3.62079, 3.7):
        for t in range(3, 9):
            sol = solve_profile_qp(a, t)
            assert sol.objective >= strict_bound(a) - 1e-10


def test_qp_lengths_tile_the_unit_interval():
    a, t = 3.0, 4
    sol = solve_profile_qp(a, t)
    at1 = a ** (t - 1)
    s_abs = at1 * (a - 2.0)
    m = sol.chi2.size
    w = np.ones(m)
    total = at1 * sol.chi0 + s_abs * sol.chi1 + float(w @ sol.chi2)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert sol.chi0 > 0 and np.all(sol.chi2 > 0)


def test_qp_equalizes_marginal_costs():
    # stationarity: A0*chi0 equals An*chi2_n for every n
    a, t = 3.0, 4
    sol = solve_profile_qp(a, t)
    s_abs = a ** (t - 1) * (a - 2.0)
    steps = np.arange(1, sol.chi2.size + 1, dtype=float)
    An = s_abs * (steps + s_abs) / (2.0 * (steps + 2.0 * s_abs))
    prods = An * sol.chi2
    assert np.max(np.abs(prods - s_abs / 4.0 * sol.chi0)) <= 1e-9


def test_qp_chi2_decreasing_in_n():
    sol = solve_profile_qp(3.0, 4)
    assert np.all(np.diff(sol.chi2) < 0)


def test_qp_objective_sum_order_invariant():
    a, t = 3.3, 5
    sol = solve_profile_qp(a, t)
    at1 = a ** (t - 1)
    s_abs = at1 * (a - 2.0)
    M = at1 - 1.0
    m = sol.chi2.size
    w = np.ones(m)
    if m > M:
        w[-1] = M - np.floor(M)
    steps = np.arange(1, m + 1, dtype=float)
    An = s_abs * (steps + s_abs) / (2.0 * (steps + 2.0 * s_abs))
    terms = w * An * sol.chi2**2
    rng = np.random.default_rng(0)
    shuffled = terms[rng.permutation(m)]
    fixed = at1 * (s_abs / 4.0) * sol.chi0**2 + s_abs * sol.chi1 * (
        4.0 - at1 * sol.chi1
    ) / 16.0
    assert fixed + float(np.sum(shuffled)) == pytest.approx(
        sol.objective, abs=1e-12
    )


def test_qp_validation():
    with pytest.raises(ValueError):
        solve_profile_qp(4.0, 3)
    with pytest.raises(ValueError):
        solve_profile_qp(3.0, 0)


def test_projection_without_bracket_raises():
    g = np.array([1.0, 2.0, 0.5])
    x = _project_weighted(np.array([0.3, -0.2, 0.9]), g, 1.0)
    assert x.min() >= 0.0 and float(g @ x) == pytest.approx(1.0, abs=1e-15)
    # a NaN leaves no bracketing interval for the multiplier; this used to
    # fall back silently to a bisection that returned NaN
    with pytest.raises(RuntimeError, match="bracket"):
        _project_weighted(np.array([0.3, math.nan, 0.9]), g, 1.0)


def test_qp_t1_has_no_last_block():
    sol = solve_profile_qp(3.0, 1)
    assert sol.chi2.size == 0
    assert sol.chi0 > 0


# -------------------------------------------------------------- gap reports


def test_gap_report_shape_and_monotone():
    rows = qp_gap_report(3.3, range(3, 9))
    assert [t for t, *_ in rows] == list(range(3, 9))
    closed = strict_bound(3.3)
    gaps = []
    for t, obj, c, gap in rows:
        assert c == closed
        assert gap == pytest.approx(obj - closed, abs=1e-16)
        assert gap > 0
        gaps.append(gap)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@settings(max_examples=20, deadline=None)
@given(st.floats(3.0, 3.7), st.integers(2, 5))
def test_qp_objective_dominates_closed_form_fuzzed(a, t):
    sol = solve_profile_qp(a, t)
    assert sol.objective >= strict_bound(a) - 1e-10
