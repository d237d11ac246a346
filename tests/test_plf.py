from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardis.plf import (
    PiecewiseLinearFn,
    discrepancy_function,
    make_point_set,
    read_point_file,
    star_discrepancy,
    write_point_file,
)

from envelope_oracle import oracle_resample


# ---------------------------------------------------------------- point sets


def test_make_point_set_valid():
    ps = make_point_set([0.5, 0.0, 0.999])
    assert len(ps) == 3
    assert ps.points == (0.5, 0.0, 0.999)


def test_make_point_set_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        make_point_set([])


def test_make_point_set_rejects_out_of_range_with_index():
    with pytest.raises(ValueError, match="index 1"):
        make_point_set([0.5, 1.0])
    with pytest.raises(ValueError, match="index 0"):
        make_point_set([-0.1, 0.5])


def test_make_point_set_names_first_of_several_bad_indices():
    with pytest.raises(ValueError, match=r"index 2 outside \[0, 1\): nan$"):
        make_point_set([0.5, 0.25, float("nan"), 1.5, -1.0])
    with pytest.raises(ValueError, match=r"index 1 outside \[0, 1\): 1\.0$"):
        make_point_set(np.array([0.0, 1.0, 2.0, 0.5, -0.5]))
    with pytest.raises(ValueError, match=r"index 3 outside \[0, 1\): -1e-300$"):
        make_point_set(x for x in (0.1, 0.2, 0.3, -1e-300, 7.0))


def _make_point_set_loop(values):
    """The per-value loop make_point_set replaced: points, or the error text."""
    vals = tuple(float(v) for v in values)
    for i, v in enumerate(vals):
        if not (0.0 <= v < 1.0):
            return f"point at index {i} outside [0, 1): {v!r}"
    return vals


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats()), min_size=1, max_size=12))
def test_make_point_set_matches_loop_reference(values):
    try:
        got = make_point_set(values).points
    except ValueError as exc:
        got = str(exc)
    assert repr(got) == repr(_make_point_set_loop(values))


def test_point_file_roundtrip(tmp_path):
    ps = make_point_set([0.125, 0.6180339887498949, 0.0])
    path = tmp_path / "pts.txt"
    write_point_file(ps, path)
    back = read_point_file(path)
    assert back.points == ps.points


def test_point_file_prints_float_reprs(tmp_path):
    ps = make_point_set([0.1, 1 / 3, 0.0, 0.5, 2.0**-30, np.float64(0.7)])
    path = tmp_path / "pts.txt"
    write_point_file(ps, path)
    assert path.read_bytes() == (
        b"0.1\n0.3333333333333333\n0.0\n0.5\n9.313225746154785e-10\n0.7\n"
    )


def test_point_set_values_cached_read_only():
    ps = make_point_set([0.5, 0.25, 0.5, 0.0, 0.75])
    assert ps.values is ps.values
    assert ps.values.dtype == np.float64
    assert ps.values.tolist() == list(ps.points)
    with pytest.raises(ValueError):
        ps.values[0] = 0.1
    assert ps.points[0] == 0.5
    assert ps.distinct_values is ps.distinct_values
    assert ps.distinct_values.tolist() == [0.0, 0.25, 0.5, 0.75]
    with pytest.raises(ValueError):
        ps.distinct_values[0] = 0.1


def test_make_point_set_seeds_values_with_a_private_copy():
    src = np.array([0.5, 0.25, 0.0, 0.75])
    ps = make_point_set(src)
    assert "values" in ps.__dict__  # cached by make_point_set, not rebuilt
    cached = ps.values
    assert not cached.flags.writeable
    assert cached.tobytes() == np.array(ps.points).tobytes()
    src[0] = 0.9  # the caller's array is not the cache
    assert ps.values is cached and ps.values[0] == 0.5 and ps.points[0] == 0.5


def test_point_set_sort_order_lists_every_prefix_sorted():
    ps = make_point_set([0.5, 0.25, 0.5, 0.0, 0.25, 0.75])
    order = ps.sort_order
    assert order.tolist() == [3, 1, 4, 0, 2, 5]  # stable among equal values
    assert not order.flags.writeable
    for n in range(1, len(ps) + 1):
        assert ps.values[order[order < n]].tolist() == sorted(ps.points[:n])


def test_point_set_cache_keeps_value_semantics():
    ps, qs = make_point_set([0.5, 0.25]), make_point_set([0.5, 0.25])
    _ = ps.values, ps.distinct_values
    assert ps == qs and hash(ps) == hash(qs)
    assert repr(ps) == repr(qs) == "PointSet(points=(0.5, 0.25))"


def test_point_file_comments_and_blanks(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# header\n0.25\n\n0.75   # trailing\n")
    assert read_point_file(path).points == (0.25, 0.75)


def test_point_file_unparseable(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0.25\nbogus\n")
    with pytest.raises(ValueError, match="bogus"):
        read_point_file(path)


# ------------------------------------------------------------ the PLF engine


def plf_strategy(max_interior=5, bound=8.0):
    @st.composite
    def build(draw):
        interior = draw(
            st.lists(
                st.floats(0.02, 0.98), min_size=0, max_size=max_interior, unique=True
            )
        )
        bp = [0.0] + sorted(interior) + [1.0]
        m = len(bp) - 1
        slopes = draw(st.lists(st.floats(-bound, bound), min_size=m, max_size=m))
        jumps = draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))
        anchor = draw(st.floats(-3.0, 3.0))
        return PiecewiseLinearFn(bp, slopes, jumps, anchor)

    return build()


def test_constructor_validation():
    with pytest.raises(ValueError, match="start at 0"):
        PiecewiseLinearFn([0.1, 1.0], [0.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="increasing"):
        PiecewiseLinearFn([0.0, 0.5, 0.5, 1.0], [0.0] * 3, [0.0] * 3, 0.0)
    with pytest.raises(ValueError, match="slopes"):
        PiecewiseLinearFn([0.0, 1.0], [0.0, 1.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="jumps"):
        PiecewiseLinearFn([0.0, 1.0], [0.0], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinearFn([0.0, 1.0], [math.inf], [0.0], 0.0)


def test_left_continuity_and_jumps():
    g = PiecewiseLinearFn([0.0, 0.5, 1.0], [1.0, -1.0], [0.0, 2.0], 0.0)
    assert g.value(0.5) == pytest.approx(0.5, abs=1e-15)  # left limit at the jump
    assert g.value(0.5) + g.jump_at(0.5) == pytest.approx(2.5, abs=1e-15)  # right limit
    assert g.jump_at(0.5) == 2.0
    assert g.jump_at(0.3) == 0.0
    assert g.value(0.75) == pytest.approx(2.5 - 0.25, abs=1e-15)
    assert g.value(1.0) == pytest.approx(2.0, abs=1e-15)


def test_jump_at_zero_models_points_at_origin():
    g = PiecewiseLinearFn([0.0, 1.0], [-1.0], [2.0], 0.0)
    assert g.value(0.0) == 0.0
    assert g.value(0.25) == pytest.approx(2.0 - 0.25, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(plf_strategy(), plf_strategy(), st.floats(0.0, 1.0))
def test_envelope_pointwise(f, g, x):
    scale = 1.0 + max(
        np.max(np.abs(f.left_values)), np.max(np.abs(g.left_values))
    )
    hi = f.maximum(g)
    assert hi.value(x) == pytest.approx(max(f.value(x), g.value(x)), abs=1e-9 * scale)
    assert (f + g).value(x) == pytest.approx(f.value(x) + g.value(x), abs=1e-9 * scale)
    assert (f - g).value(x) == pytest.approx(f.value(x) - g.value(x), abs=1e-9 * scale)


@settings(max_examples=100, deadline=None)
@given(plf_strategy(), plf_strategy())
def test_envelope_equals_full_resample(f, g):
    # the merge samples each operand once, and spreads its values at the
    # crossings; the result must equal both operands resampled in full on
    # its final grid
    h = f.maximum(g)
    grid = h.breakpoints
    fl, fr, fs = oracle_resample(f, grid)
    gl, gr, gs = oracle_resample(g, grid)
    half = np.diff(grid) / 2
    mid_f, mid_g = fr[:-1] + fs * half, gr[:-1] + gs * half
    assert h.slopes.tobytes() == np.where(mid_f >= mid_g, fs, gs).tobytes()
    assert h.jumps.tobytes() == (np.maximum(fr, gr) - np.maximum(fl, gl))[:-1].tobytes()
    assert h.anchor == np.maximum(fl, gl)[0]


# ------------------------------------------------------ discrepancy profiles


def test_discrepancy_function_single_point():
    d = discrepancy_function(make_point_set([0.5]), 1)
    assert d.value(0.0) == 0.0
    assert d.value(0.5) == pytest.approx(-0.5, abs=1e-15)
    assert d.jump_at(0.5) == 1.0
    assert d.value(1.0) == pytest.approx(0.0, abs=1e-15)


def test_discrepancy_function_point_at_origin():
    d = discrepancy_function(make_point_set([0.0, 0.5]), 2)
    assert d.value(0.0) == 0.0
    assert d.jump_at(0.0) == 1.0
    assert d.value(0.25) == pytest.approx(1.0 - 0.5, abs=1e-15)


def test_discrepancy_function_coincident_points_sum_jumps():
    d = discrepancy_function(make_point_set([0.5, 0.5, 0.7]), 3)
    assert d.jump_at(0.5) == 2.0
    assert d.jump_at(0.7) == 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.0, 0.999), min_size=1, max_size=12),
    st.floats(0.001, 0.999),
)
def test_discrepancy_matches_counting(points, x):
    ps = make_point_set(points)
    n = len(ps)
    d = discrepancy_function(ps, n)
    if x in set(ps.points):
        return  # counting uses strict inequality; left limit differs at atoms
    count = sum(p < x for p in ps.points[:n])
    assert d.value(x) == pytest.approx(count - n * x, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=12))
def test_discrepancy_endpoint_zeros(points):
    ps = make_point_set(points)
    for n in range(1, len(ps) + 1):
        d = discrepancy_function(ps, n)
        assert d.value(0.0) == 0.0
        assert abs(d.value(1.0)) <= 1e-12


# ------------------------------------------------------------------- D* star


def brute_star(points, n):
    # sup over candidate evaluation points of |#{x_i < x}/n - x|; the sup is
    # approached at the atoms from either side or at the interval ends
    y = np.sort(np.asarray(points[:n]))
    lt = np.searchsorted(y, y, side="left")
    le = np.searchsorted(y, y, side="right")
    vals = np.maximum(np.abs(lt / n - y), np.abs(le / n - y))
    return float(np.max(vals))


def test_star_discrepancy_examples():
    assert star_discrepancy(make_point_set([0.5])) == 0.5
    centered4 = make_point_set([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert star_discrepancy(centered4) == pytest.approx(0.125, abs=1e-15)
    assert star_discrepancy(make_point_set([0.1, 0.3, 0.8])) == pytest.approx(
        0.36666666666666664, abs=1e-15
    )


def test_star_discrepancy_prefix_and_domain():
    ps = make_point_set([0.5, 0.1])
    assert star_discrepancy(ps, 1) == 0.5
    with pytest.raises(ValueError):
        star_discrepancy(ps, 0)
    with pytest.raises(ValueError):
        star_discrepancy(ps, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=50))
def test_star_discrepancy_brute_agreement(points):
    ps = make_point_set(points)
    d = star_discrepancy(ps)
    assert d == pytest.approx(brute_star(ps.points, len(ps)), abs=1e-12)
    assert 1.0 / (2 * len(ps)) - 1e-15 <= d <= 1.0

