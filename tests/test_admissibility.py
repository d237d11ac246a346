from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardis.admissibility import (
    JUMP_TOL,
    PropertyReport,
    Violation,
    _fenced_backline,
    build_f,
    check_all,
    check_bend_condition,
    check_properties,
    check_strict_admissibility,
    gamma_sets_from_points,
    make_scale,
)
from stardis.plf import PiecewiseLinearFn, discrepancy_function, make_point_set


# -------------------------------------------------------------------- scales


def test_make_scale_examples():
    sc = make_scale(3.0, 2)
    assert (sc.N, sc.n0) == (9, 3)
    assert sc.s0 == -3.0 and sc.abs_s0 == 3.0
    assert sc.integer_exact
    sc = make_scale(3.0, 1)
    assert (sc.N, sc.n0, sc.s0) == (3, 1, -1.0)


def test_make_scale_partition():
    sc = make_scale(3.0, 3)
    assert list(sc.A0) == list(range(1, 10))
    assert list(sc.A2) == list(range(19, 28))
    assert list(sc.A1) == list(range(10, 19))
    combined = list(sc.A0) + list(sc.A1) + list(sc.A2)
    assert combined == list(range(1, sc.N + 1))


def test_make_scale_non_integer_base():
    sc = make_scale(3.5, 2)
    assert (sc.N, sc.n0) == (12, 3)
    assert sc.s0 == pytest.approx(-5.25, abs=1e-15)
    assert not sc.integer_exact


def test_make_scale_domain():
    with pytest.raises(ValueError, match=r"outside \[3\.0, 3\.7\]"):
        make_scale(2.9, 2)
    with pytest.raises(ValueError, match=r"outside \[3\.0, 3\.7\]"):
        make_scale(3.8, 2)
    with pytest.raises(ValueError):
        make_scale(3.0, 0)
    with pytest.raises(ValueError):
        make_scale(3.0, 1.5)  # type: ignore[arg-type]


# ------------------------------------------------------------------- build_f


def test_build_f_size_mismatch():
    sc = make_scale(3.0, 2)
    with pytest.raises(ValueError, match="N=9"):
        build_f(make_point_set([0.5] * 8), sc)


def test_build_f_hand_example():
    # N=3: A0={1}, A1={2}, A2={3}; f = D_3 - D_1
    sc = make_scale(3.0, 1)
    ps = make_point_set([0.5, 0.2, 0.8])
    f = build_f(ps, sc)
    assert f.jump_at(0.2) == pytest.approx(1.0, abs=1e-12)
    assert f.jump_at(0.8) == pytest.approx(1.0, abs=1e-12)
    assert f.jump_at(0.5) == pytest.approx(0.0, abs=1e-12)  # continuous at x_1
    assert f.value(0.0) == 0.0
    assert abs(f.value(1.0)) <= 1e-12
    assert f.value(0.5) == pytest.approx(0.0, abs=1e-12)


def _direct_envelope_diff(ps, sc, x):
    hi2 = max(discrepancy_function(ps, n).value(x) for n in sc.A2)
    hi0 = max(discrepancy_function(ps, n).value(x) for n in sc.A0)
    return hi2 - hi0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.001, 0.999))
def test_build_f_matches_direct_envelopes(seed, x):
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(seed).random(sc.N))
    f = build_f(ps, sc)
    assert f.value(x) == pytest.approx(_direct_envelope_diff(ps, sc, x), abs=1e-12)


def test_build_f_slopes_are_index_differences():
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(3).random(sc.N))
    f = build_f(ps, sc)
    # every slope is m - n for some n in A2, m in A0, so integral in [-9, -4]
    assert np.all(f.slopes >= -9.0 - 1e-12)
    assert np.all(f.slopes <= sc.s0 + 1e-12)
    assert np.allclose(f.slopes, np.round(f.slopes), atol=1e-9)


# ---------------------------------------------------------- property reports


def test_check_properties_random_sets_pass():
    sc = make_scale(3.0, 2)
    rng = np.random.default_rng(20240817)
    for _ in range(150):
        ps = make_point_set(rng.random(sc.N))
        f = build_f(ps, sc)
        rep = check_all(f, sc, ps)
        assert rep.all_ok, rep.lines()
        assert abs(f.jump_at(ps.points[0])) <= 1e-12  # continuity at x_1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_check_properties_random_sets_pass_fuzzed(seed):
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(seed).random(sc.N))
    rep = check_properties(build_f(ps, sc), sc, ps)
    assert rep.all_ok, rep.lines()


def test_check_properties_flags_nonzero_endpoint():
    sc = make_scale(3.0, 1)
    ps = make_point_set([0.5, 0.2, 0.8])
    g = PiecewiseLinearFn([0.0, 1.0], [-1.0], [0.0], 0.5)
    rep = check_properties(g, sc, ps)
    assert not rep.passed("i")
    w = rep.witness("i")
    assert w is not None and w.where == 0.0 and w.measured == 0.5


def test_check_properties_flags_negative_jump():
    sc = make_scale(3.0, 1)
    ps = make_point_set([0.5, 0.2, 0.8])
    g = PiecewiseLinearFn([0.0, 0.5, 1.0], [0.0, 0.0], [0.0, -1.0], 0.0)
    rep = check_properties(g, sc, ps)
    assert not rep.passed("iii")
    w = rep.witness("iii")
    assert w is not None and w.where == 0.5 and w.measured == -1.0


def test_check_properties_flags_slope_outside_range():
    sc = make_scale(3.0, 1)  # slopes must lie in [-3, -1]
    ps = make_point_set([0.5, 0.2, 0.8])
    g = PiecewiseLinearFn([0.0, 0.5, 1.0], [-4.0, 2.0], [0.0, 1.0], 0.0)
    rep = check_properties(g, sc, ps)
    assert not rep.passed("iv")


def test_check_properties_flags_slope_change_without_jump():
    sc = make_scale(3.0, 2)  # jump-free slope changes capped at a^{t-1} = 3
    ps = make_point_set(np.random.default_rng(0).random(9))
    g = PiecewiseLinearFn([0.0, 0.5, 1.0], [-9.0, -3.0], [0.0, 0.0], 0.0)
    rep = check_properties(g, sc, ps)
    assert not rep.passed("v")
    assert rep.witness("v").measured == pytest.approx(6.0)


def test_check_properties_flags_missing_unit_jump():
    sc = make_scale(3.0, 1)
    ps = make_point_set([0.5, 0.2, 0.8])
    g = PiecewiseLinearFn([0.0, 1.0], [0.0], [0.0], 0.0)  # no jump at x_2 = 0.2
    rep = check_properties(g, sc, ps)
    assert not rep.passed("vi")
    assert rep.witness("vi").where == 0.2
    assert rep.witness("vi").note == "point index 2"


def test_check_properties_vi_witness_is_first_short_jump():
    sc = make_scale(3.0, 2)  # A1 = points 4..6
    ps = make_point_set([0.05, 0.15, 0.25, 0.3, 0.6, 0.45, 0.7, 0.8, 0.9])
    # unit jump at x_4 = 0.3, jumps of 0.5 at x_5 = 0.6 and none at x_6 = 0.45
    g = PiecewiseLinearFn([0.0, 0.3, 0.6, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.5], 0.0)
    w = check_properties(g, sc, ps).witness("vi")
    assert (w.where, w.measured, w.threshold, w.note) == (0.6, 0.5, 1.0, "point index 5")


def test_report_lines_render_witness():
    sc = make_scale(3.0, 1)
    ps = make_point_set([0.5, 0.2, 0.8])
    g = PiecewiseLinearFn([0.0, 1.0], [0.0], [0.0], 0.5)
    rep = check_properties(g, sc, ps)
    text = "\n".join(rep.lines())
    assert "i: FAIL" in text and "x=0" in text
    assert "vi: FAIL" in text


def test_report_never_raises_on_weird_input():
    sc = make_scale(3.0, 2)
    ps = make_point_set([0.9] * 9)  # fully degenerate set
    f = build_f(ps, sc)
    rep = check_properties(f, sc, ps)
    assert isinstance(rep.all_ok, bool)


# -------------------------------------------------------------- bend checks


def test_bend_condition_random_sets_pass():
    sc = make_scale(3.0, 2)
    rng = np.random.default_rng(99)
    for _ in range(100):
        ps = make_point_set(rng.random(sc.N))
        f = build_f(ps, sc)
        for j in (7, 8):
            if f.jump_at(ps.points[j - 1]) > 1e-9:
                rep = check_bend_condition(f, sc, ps, j)
                assert rep.all_ok, rep.lines()


def test_bend_condition_index_validation():
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(1).random(9))
    f = build_f(ps, sc)
    with pytest.raises(ValueError, match="last block"):
        check_bend_condition(f, sc, ps, 5)  # middle block
    with pytest.raises(ValueError, match="last block"):
        check_bend_condition(f, sc, ps, 9)  # final index excluded
    with pytest.raises(ValueError, match="last block"):
        check_bend_condition(f, sc, ps, 10)


def test_bend_condition_requires_discontinuity():
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(1).random(9))
    flat = PiecewiseLinearFn([0.0, 1.0], [0.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="discontinuity"):
        check_bend_condition(flat, sc, ps, 7)


def _tied_t5_member1():
    # tied-value set: 243 uniforms rounded down to multiples of 1/32
    rng = random.Random("tied:5:1")
    return make_point_set([math.floor(rng.random() * 32) / 32 for _ in range(243)])


def _exact_f(ps, sc, x: Fraction) -> Fraction:
    """f(x) in exact rational arithmetic (dyadic points compare exactly)."""
    pts = [Fraction(v) for v in ps.points]

    def d(n):
        return sum(1 for v in pts[:n] if v < x) - n * x

    return max(d(n) for n in sc.A2) - max(d(n) for n in sc.A0)


def test_bend_sliver_exact_slope():
    # around c = 18/35 both envelopes switch branch at the same point, so
    # exact f keeps slope -148 on both sides, at or below the bend threshold
    # s0 - k = -81 - 53 for j = 215
    ps, sc = _tied_t5_member1(), make_scale(3.0, 5)
    c, h = Fraction(18, 35), Fraction(1, 1000)
    for lo, hi in ((c - 2 * h, c - h), (c - h, c), (c, c + h), (c + h, c + 2 * h)):
        assert (_exact_f(ps, sc, hi) - _exact_f(ps, sc, lo)) / (hi - lo) == -148
    assert -148 <= sc.s0 - (215 - (sc.N - sc.n0))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: float envelopes leave a 1-ulp slope -113 sliver at "
    "18/35 where exact f has slope -148, so bend[j=215] fires spuriously",
)
def test_bend_tied_t5_sliver_passes():
    ps, sc = _tied_t5_member1(), make_scale(3.0, 5)
    f = build_f(ps, sc)
    rep = check_bend_condition(f, sc, ps, 215)
    assert rep.all_ok, rep.lines()


def test_bend_condition_vacuous_without_neighbor():
    sc = make_scale(3.0, 2)
    # x_7 is the largest value: no distinct neighbor on the right
    pts = [0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.95, 0.6, 0.7]
    ps = make_point_set(pts)
    f = build_f(ps, sc)
    assert f.jump_at(0.95) > 1e-9
    rep = check_bend_condition(f, sc, ps, 7)
    assert rep.all_ok


def test_bend_condition_detects_violation():
    sc = make_scale(3.0, 2)
    pts = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ps = make_point_set(pts)
    # jump at x_7 = 0.7, right slope -3.5 above the threshold s0 - 1 = -4,
    # and the left side dips below the back line
    g = PiecewiseLinearFn(
        [0.0, 0.6, 0.7, 0.8, 1.0],
        [0.0, -9.0, -3.5, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        2.0,
    )
    rep = check_bend_condition(g, sc, ps, 7)
    assert not rep.all_ok
    w = rep.witness("bend[j=7]")
    assert w is not None
    assert 0.6 <= w.where <= 0.7  # left-limit probe at the jump is a valid witness
    assert w.measured < w.threshold
    assert "xbar" in w.note


def test_bend_condition_passes_when_no_slope_fires():
    sc = make_scale(3.0, 2)
    pts = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ps = make_point_set(pts)
    # same shape but the right slope stays at the threshold: nothing fires
    g = PiecewiseLinearFn(
        [0.0, 0.6, 0.7, 0.8, 1.0],
        [0.0, -9.0, -4.0, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        2.0,
    )
    rep = check_bend_condition(g, sc, ps, 7)
    assert rep.all_ok


# ---------------------------------------------------- strict admissibility


def test_gamma_sets_cardinalities_and_order():
    sc = make_scale(3.0, 2)
    pts = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85]
    ps = make_point_set(pts)
    gs = gamma_sets_from_points(ps, sc)
    assert len(gs.gamma) == 8
    assert len(gs.gamma1) == 3
    assert gs.gamma2 == (0.65, 0.75)  # ordered by index, final point excluded
    assert len(gs.gamma0) == 3
    assert gs.gamma1 == frozenset([0.35, 0.45, 0.55])
    assert 0.05 not in gs.gamma


def test_gamma_sets_validation():
    sc = make_scale(3.0, 2)
    with pytest.raises(ValueError, match="distinct"):
        gamma_sets_from_points(make_point_set([0.5] * 9), sc)
    with pytest.raises(ValueError, match="N=9"):
        gamma_sets_from_points(make_point_set([0.5]), sc)
    sc35 = make_scale(3.5, 2)
    with pytest.raises(ValueError, match="integer-exact"):
        gamma_sets_from_points(
            make_point_set(np.random.default_rng(0).random(sc35.N)), sc35
        )


def test_strict_admissibility_random_sets_pass():
    sc = make_scale(3.0, 2)
    rng = np.random.default_rng(555)
    for _ in range(100):
        ps = make_point_set(rng.random(sc.N))
        f = build_f(ps, sc)
        gs = gamma_sets_from_points(ps, sc)
        rep = check_strict_admissibility(f, sc, gs)
        assert rep.all_ok, rep.lines()


def test_strict_admissibility_rejects_malformed_sets():
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(2).random(9))
    f = build_f(ps, sc)
    gs = gamma_sets_from_points(ps, sc)
    with pytest.raises(ValueError, match="gamma must have"):
        check_strict_admissibility(
            f, sc, type(gs)(frozenset([0.5]), gs.gamma1, gs.gamma2)
        )
    with pytest.raises(ValueError, match="disjoint"):
        check_strict_admissibility(
            f,
            sc,
            type(gs)(gs.gamma, frozenset(list(gs.gamma1)[:2] + [gs.gamma2[0]]), gs.gamma2),
        )


def test_strict_admissibility_flags_jump_outside_gamma():
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(4).random(9))
    f = build_f(ps, sc)
    gs = gamma_sets_from_points(ps, sc)
    spike = PiecewiseLinearFn([0.0, 0.9876543, 1.0], [0.0, 0.0], [0.0, 0.5], 0.0)
    rep = check_strict_admissibility(f + spike, sc, gs)
    assert not rep.passed("a")
    assert rep.witness("a").where == pytest.approx(0.9876543)


def test_strict_admissibility_witness_is_first_jump_outside_gamma():
    # two jumps off gamma sit right of f's jumps in gamma, and one jump within
    # TOL of a gamma location counts as in gamma: the witness is the leftmost
    # jump that misses
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(4).random(9))
    f = build_f(ps, sc)
    gs = gamma_sets_from_points(ps, sc)
    locs = sorted(gs.gamma)
    near = locs[-2] + 5e-13
    off = [(locs[-2] + locs[-1]) / 2, (locs[-1] + 1.0) / 2]
    spikes = PiecewiseLinearFn([0.0, near, *off, 1.0], [0.0] * 4, [0.0, 0.25, 0.5, 0.75], 0.0)
    g = f + spikes
    assert np.count_nonzero(g.jumps[g.breakpoints[:-1] < off[0]] > JUMP_TOL) >= 5
    rep = check_strict_admissibility(g, sc, gs)
    w = rep.witness("a")
    assert w.where == off[0]
    assert w.measured == pytest.approx(0.5)


def test_strict_admissibility_flags_short_jump():
    sc = make_scale(3.0, 2)
    ps = make_point_set(np.random.default_rng(4).random(9))
    f = build_f(ps, sc)
    gs = gamma_sets_from_points(ps, sc)
    target = sorted(gs.gamma1)[0]
    dent = PiecewiseLinearFn([0.0, target, 1.0], [0.0, 0.0], [0.0, -0.9], 0.0)
    rep = check_strict_admissibility(f + dent, sc, gs)
    assert not rep.passed("b")
    assert rep.witness("b").where == pytest.approx(target)


def test_strict_admissibility_clause_c_detects_violation():
    sc = make_scale(3.0, 2)
    pts = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ps = make_point_set(pts)
    gs = gamma_sets_from_points(ps, sc)
    # hand-built g jumping at every gamma location, with a firing slope after
    # the first gamma2 location (0.7) and a left side below the back line
    g = PiecewiseLinearFn(
        [0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -9.0, -3.5, 0.0, 0.0],
        [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0],
        0.0,
    )
    rep = check_strict_admissibility(g, sc, gs)
    assert not rep.passed("c")
    assert "n=1" in rep.witness("c").note


def test_strict_admissibility_requires_integer_exact_scale():
    sc = make_scale(3.5, 2)
    ps = make_point_set(np.random.default_rng(0).random(sc.N))
    f = build_f(ps, sc)
    fake = gamma_sets_from_points(
        make_point_set(np.random.default_rng(1).random(9)), make_scale(3.0, 2)
    )
    with pytest.raises(ValueError, match="integer-exact"):
        check_strict_admissibility(f, sc, fake)


# -------------------------------------------------------------- full suite


def test_check_all_order_and_statuses():
    sc = make_scale(3.0, 3)  # eligible bend indices 19..26
    ps = make_point_set(np.random.default_rng(0).random(sc.N))
    f = build_f(ps, sc)
    rep = check_all(f, sc, ps)
    heads = [name for name, _, _ in rep.entries]
    assert heads == (
        ["i", "ii", "iii", "iv", "v", "vi", "continuity[x1]"]
        + [f"bend[j={j}]" for j in range(19, 27)]
        + ["strict-a", "strict-b", "strict-c"]
    )
    assert rep.all_ok
    for j in range(19, 27):
        skipped = f.jump_at(ps.points[j - 1]) <= JUMP_TOL
        assert (f"bend[j={j}]: skipped (no jump)" in rep.lines()) == skipped
        assert rep.passed(f"bend[j={j}]") != skipped
    assert rep.records() == [f"{name},{status}" for name, status, _ in rep.entries]
    assert "skipped" in {status for _, status, _ in rep.entries}


def test_check_all_tied_input_fails_continuity_and_skips_strict():
    sc = make_scale(3.0, 2)
    ps = make_point_set([0.5] * 9)
    f = build_f(ps, sc)
    rep = check_all(f, sc, ps)
    assert not rep.all_ok
    w = rep.witness("continuity[x1]")
    assert (w.where, w.measured, w.threshold) == (0.5, f.jump_at(0.5), 0.0)
    assert rep.lines()[-1] == "strict: skipped (point values must be pairwise distinct)"
    assert rep.records()[-1] == "strict,skipped"
    assert "continuity[x1],fail" in rep.records()


def test_report_skip_is_neither_pass_nor_fail():
    rep = PropertyReport()
    rep.add("x", True)
    rep.skip("y", "no jump")
    assert rep.all_ok
    assert rep.passed("x") and not rep.passed("y")
    assert rep.witness("y") is None
    other = PropertyReport()
    other.add("a", False, Violation(0.25, -1.0, 0.0))
    rep.extend(other, prefix="strict-")
    assert not rep.all_ok
    assert rep.records() == ["x,pass", "y,skipped", "strict-a,fail"]
    assert rep.lines()[:2] == ["x: pass", "y: skipped (no jump)"]
    assert rep.lines()[2].startswith("strict-a: FAIL at x=0.25, measured -1")


def test_fenced_backline_vacuous_at_fence_end():
    # the failing bend of test_bend_condition_detects_violation: between
    # 0.6 and 0.8 it fails; with 0.7 at the end of the fence nothing is tested
    g = PiecewiseLinearFn(
        [0.0, 0.6, 0.7, 0.8, 1.0],
        [0.0, -9.0, -3.5, 0.0],
        [0.0, 0.0, 0.5, 0.0],
        2.0,
    )
    ok, w = _fenced_backline(g, np.array([0.6, 0.7, 0.8]), 0.7, -4.0, -3.0)
    assert not ok and 0.6 <= w.where <= 0.7
    assert _fenced_backline(g, np.array([0.6, 0.7]), 0.7, -4.0, -3.0) == (True, None)
    assert _fenced_backline(g, np.array([0.7, 0.8]), 0.7, -4.0, -3.0) == (True, None)
