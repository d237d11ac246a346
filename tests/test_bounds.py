from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardis.bounds import (
    TOL_FLOOR,
    chi_bounds,
    harmonic_tail_bound_check,
    make_bound_report,
    optimize_constant,
    p_function,
    q_function,
    strict_bound,
    strong_bound,
)
from stardis.variational import per_interval_bound


# ------------------------------------------------------------- bound anchors


def test_strong_bound_anchors():
    assert strong_bound(3.0) == pytest.approx(27 / 200, abs=1e-16)
    assert strong_bound(4.0) == pytest.approx(5 / 28, abs=1e-16)
    c = strong_bound(3.71866) / (2 * math.log(3.71866))
    assert c == pytest.approx(0.06463632268926825, abs=1e-14)


def test_strict_bound_anchors():
    assert strict_bound(3.0) == pytest.approx(0.1387389186511405, abs=1e-14)
    assert strict_bound(3.62079) == pytest.approx(0.16898046654584928, abs=1e-14)


def test_bound_domains():
    with pytest.raises(ValueError):
        strong_bound(2.9)
    with pytest.raises(ValueError):
        strong_bound(4.1)
    with pytest.raises(ValueError):
        strict_bound(3.71)
    strict_bound(3.7)  # right endpoint included
    strong_bound(4.0)


def test_strict_exceeds_strong_on_grid():
    for a in np.linspace(3.0, 3.7, 141):
        assert strict_bound(float(a)) > strong_bound(float(a))


# ------------------------------------------------------------------ q and chi


def test_q_anchors():
    assert q_function(3.0) == pytest.approx(-2 * math.log(2), abs=1e-14)
    assert q_function(3.7) == pytest.approx(-0.023441965741837212, abs=1e-14)


def test_q_negative_and_increasing():
    grid = np.linspace(3.0, 3.7, 1001)[1:]
    vals = [q_function(float(a)) for a in grid]
    assert all(v < 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_chi_bounds_example():
    cb = chi_bounds(3.5, 2)
    assert cb.chi_min == pytest.approx(0.09523809523809523, abs=1e-15)
    assert cb.chi_max == pytest.approx(0.14285714285714285, abs=1e-15)
    assert cb.chi_crit == pytest.approx(0.08967658857136053, abs=1e-14)
    assert cb.chi_crit <= cb.chi_min <= cb.chi_max


def test_chi_crit_below_chi_min_on_grid():
    for a in np.linspace(3.0, 3.7, 1001)[1:]:
        cb = chi_bounds(float(a), 3)
        assert cb.chi_crit <= cb.chi_min + 1e-15


def test_chi_ratio_independent_of_t():
    for a in (3.1, 3.7):
        ratios = [
            chi_bounds(a, t).chi_crit / chi_bounds(a, t).chi_min for t in range(2, 8)
        ]
        assert max(ratios) - min(ratios) <= 1e-14


def test_chi_bounds_validation():
    with pytest.raises(ValueError):
        chi_bounds(2.5, 2)
    with pytest.raises(ValueError):
        chi_bounds(3.5, 0)


# ------------------------------------------------------------------------- p


def test_p_collapses_to_strict_bound_at_chi_min():
    for a in (3.1, 3.35, 3.62079, 3.7):
        for t in range(2, 11):
            cm = chi_bounds(a, t).chi_min
            assert p_function(a, t, cm) == pytest.approx(
                strict_bound(a), abs=1e-12
            )


def test_p_is_convex_in_chi1():
    for a in (3.0001, 3.35, 3.7):
        for t in (2, 3):
            h = chi_bounds(a, t).chi_min / 8
            xs = [k * h for k in range(1, 8)]
            vals = [p_function(a, t, x) for x in xs]
            second = [u - 2 * v + w for u, v, w in zip(vals, vals[1:], vals[2:])]
            assert all(s >= -1e-15 for s in second)


def test_p_validation():
    with pytest.raises(ValueError):
        p_function(3.5, 2, -0.01)
    with pytest.raises(ValueError):
        p_function(3.9, 2, 0.01)


# --------------------------------------------------------------- coefficients
# A_0 = |s0|/4 and A_n (n >= 1) are the Q0 and Q2 per-interval bounds at L = 1


def test_coefficient_A_values():
    assert per_interval_bound("Q0", 3.0, 2, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert per_interval_bound("Q2", 3.0, 2, 1.0, 1) == pytest.approx(6 / 7, abs=1e-15)
    assert per_interval_bound("Q2", 3.0, 2, 1.0, 2) == pytest.approx(
        3 * 5 / (2 * 8), abs=1e-15
    )


def test_coefficient_A_monotone_below_half_s0():
    s0 = 3.0 ** 4  # |s0| at a=3, t=5
    vals = [per_interval_bound("Q2", 3.0, 5, 1.0, n) for n in range(1, 81)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < s0 / 2 for v in vals)
    assert vals[0] > per_interval_bound("Q0", 3.0, 5, 1.0)  # A_0 is the smaller s0/4


def test_coefficient_A_validation():
    with pytest.raises(ValueError):
        per_interval_bound("Q2", 3.0, 2, 1.0, 3)  # a^{t-1} - 1 = 2
    with pytest.raises(ValueError):
        per_interval_bound("Q2", 3.0, 2, 1.0, -1)
    with pytest.raises(ValueError):
        per_interval_bound("Q2", 3.0, 2, 1.0, 1.5)  # type: ignore[arg-type]


# ------------------------------------------------------------- harmonic tail


def test_harmonic_tail_t2_exact():
    total, bound = harmonic_tail_bound_check(3.0, 2)
    assert total == pytest.approx(0.45, abs=1e-15)
    assert bound == pytest.approx(math.log(2), abs=1e-15)


def test_harmonic_tail_below_bound_and_tightening():
    gaps = []
    for t in range(2, 13):
        total, bound = harmonic_tail_bound_check(3.0, t)
        assert total < bound
        gaps.append(bound - total)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_harmonic_tail_validation():
    with pytest.raises(ValueError):
        harmonic_tail_bound_check(3.0, 1)
    with pytest.raises(ValueError):
        harmonic_tail_bound_check(2.0, 3)


# ----------------------------------------------------------------- optimizer


def test_optimize_strict():
    a_star, c_star = optimize_constant("strict", 3.0, 3.7)
    assert a_star == pytest.approx(3.62079546655, abs=5e-4)
    assert c_star == pytest.approx(0.06566467958359284, abs=1e-10)


def test_optimize_strong():
    a_star, c_star = optimize_constant("strong", 3.0, 3.8)
    assert a_star == pytest.approx(3.71866, abs=5e-4)
    assert c_star == pytest.approx(0.06463632268926825, abs=1e-10)


def test_optimize_degenerate_interval():
    a_star, c_star = optimize_constant("strict", 3.5, 3.5)
    assert a_star == 3.5
    assert c_star == pytest.approx(strict_bound(3.5) / (2 * math.log(3.5)), abs=1e-15)


def test_optimize_padding_invariance():
    _, c1 = optimize_constant("strict", 3.0, 3.7)
    _, c2 = optimize_constant("strict", 3.05, 3.7)
    assert c1 == pytest.approx(c2, abs=1e-9)


def test_optimize_validation():
    with pytest.raises(ValueError, match="family"):
        optimize_constant("weak", 3.0, 3.5)
    with pytest.raises(ValueError):
        optimize_constant("strict", 3.5, 3.1)
    with pytest.raises(ValueError):
        optimize_constant("strict", 3.0, 3.9)  # beyond the strict domain
    with pytest.raises(ValueError):
        optimize_constant("strong", 2.5, 3.5)
    with pytest.raises(ValueError):
        optimize_constant("strict", 3.0, 3.7, tol=0.0)
    with pytest.raises(ValueError, match="at least 1e-14"):
        optimize_constant("strict", 3.0, 3.7, tol=1e-17)  # never returned before
    a_star, _ = optimize_constant("strict", 3.0, 3.7, tol=TOL_FLOOR)
    assert a_star == pytest.approx(3.62079562, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.floats(3.0, 3.7), st.floats(3.0, 3.7))
def test_optimize_never_below_endpoint_values(lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    _, c_star = optimize_constant("strict", lo, hi)
    for a in (lo, hi):
        assert c_star >= strict_bound(a) / (2 * math.log(a)) - 1e-12


# -------------------------------------------------------------------- report


def test_bound_report_fields_and_record():
    rep = make_bound_report(3.5)
    assert rep.a == 3.5
    assert rep.strong_bound == pytest.approx(strong_bound(3.5), abs=1e-16)
    assert rep.strict_bound == pytest.approx(strict_bound(3.5), abs=1e-16)
    assert rep.c_strict == pytest.approx(
        strict_bound(3.5) / (2 * math.log(3.5)), abs=1e-16
    )
    parts = rep.record().split(",")
    assert len(parts) == 5
    assert [float(p) for p in parts] == pytest.approx(
        [rep.a, rep.strong_bound, rep.strict_bound, rep.c_strong, rep.c_strict],
        rel=1e-8,
    )


def test_bound_report_domain():
    with pytest.raises(ValueError):
        make_bound_report(3.8)
