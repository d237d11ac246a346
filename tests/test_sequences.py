from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardis.plf import make_point_set, star_discrepancy
from stardis.sequences import (
    GOLDEN_MEAN_FRAC,
    checkpoints,
    kronecker,
    read_trajectory,
    trajectory,
    van_der_corput,
    write_trajectory,
)


# ----------------------------------------------------------------- sequences


def test_van_der_corput_base2_prefix():
    assert list(van_der_corput(2, 4).points) == [0.5, 0.25, 0.75, 0.125]


def test_van_der_corput_base10_digit_reversal():
    # n = 123 reverses to 0.321 in base 10
    assert van_der_corput(10, 123).points[-1] == pytest.approx(
        0.321, abs=1e-15
    )


def test_van_der_corput_validation():
    with pytest.raises(ValueError, match=">= 2"):
        van_der_corput(1, 4)
    with pytest.raises(ValueError, match="positive"):
        van_der_corput(2, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(1, 200))
def test_van_der_corput_in_unit_interval(base, count):
    pts = van_der_corput(base, count).points
    assert all(0.0 <= x < 1.0 for x in pts)
    # radical inverse of distinct integers is distinct
    assert len(set(pts)) == count


def _van_der_corput_loop(base, count):
    # one radical inverse at a time: the reference for the vectorized version
    out = []
    for k in range(1, count + 1):
        x, denom = 0.0, 1.0 / base
        while k:
            k, digit = divmod(k, base)
            x += digit * denom
            denom /= base
        out.append(x)
    return out


@pytest.mark.parametrize("base", [2, 3, 5, 7, 10, 16])
def test_van_der_corput_bitwise_equals_loop(base):
    count = 20000
    fast = van_der_corput(base, count).values
    ref = np.array(_van_der_corput_loop(base, count))
    assert fast.tobytes() == ref.tobytes()
    assert van_der_corput(np.int64(base), 7).points == tuple(ref[:7])


def test_van_der_corput_base2_full_blocks_fill_dyadic_grid():
    # radical inverse maps 1..2^k-1 onto {j/2^k : 1 <= j < 2^k} exactly
    for k in (2, 3, 4, 6):
        pts = np.sort(van_der_corput(2, 2**k - 1).values)
        assert np.array_equal(pts, np.arange(1, 2**k) / 2.0**k)


def test_kronecker_rational_rotation():
    assert list(kronecker(3, 0.5).points) == [0.5, 0.0, 0.5]


def test_kronecker_golden_default():
    ps = kronecker(1)
    assert ps.points[0] == pytest.approx(GOLDEN_MEAN_FRAC, abs=1e-16)
    assert GOLDEN_MEAN_FRAC == pytest.approx(0.6180339887498949, abs=1e-16)


def test_kronecker_validation():
    with pytest.raises(ValueError, match="positive"):
        kronecker(0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 500), st.floats(0.0, 10.0))
def test_kronecker_in_unit_interval(count, alpha):
    pts = kronecker(count, alpha).points
    assert all(0.0 <= x < 1.0 for x in pts)


# ---------------------------------------------------------------- trajectory


def test_trajectory_centered_lattice():
    cl = make_point_set([(2 * i - 1) / 16 for i in range(1, 9)])
    recs = trajectory(cl, "all")
    assert [r.N for r in recs] == list(range(1, 9))
    assert recs[0].normalized is None
    assert recs[-1].dstar == pytest.approx(1 / 16, abs=1e-15)
    assert recs[-1].scaled == pytest.approx(0.5, abs=1e-15)


def test_trajectory_running_max_and_floor():
    ps = van_der_corput(2, 64)
    recs = trajectory(ps, "all")
    peak = 0.0
    for r in recs:
        assert r.dstar >= 1.0 / (2 * r.N) - 1e-15
        assert r.scaled == pytest.approx(r.N * r.dstar, abs=1e-15)
        if r.normalized is not None:
            assert r.normalized == pytest.approx(
                r.N * r.dstar / math.log(r.N), abs=1e-15
            )
            peak = max(peak, r.normalized)
        assert r.running_max == pytest.approx(peak, abs=1e-15)
    assert all(
        b.running_max >= a.running_max - 1e-15 for a, b in zip(recs, recs[1:])
    )


def test_trajectory_dyadic_checkpoints():
    recs = trajectory(van_der_corput(2, 100), "dyadic")
    assert [r.N for r in recs] == [2, 4, 8, 16, 32, 64, 100]
    recs = trajectory(van_der_corput(2, 64), "dyadic")
    assert [r.N for r in recs] == [2, 4, 8, 16, 32, 64]  # no duplicate final N


def test_checkpoints_match_trajectory_lengths():
    # the CLI sums these before any point exists, to bound a run's work
    assert checkpoints("all", 4) == [1, 2, 3, 4]
    assert checkpoints("dyadic", 20) == [2, 4, 8, 16, 20]
    assert checkpoints([3, 9], 10) == [3, 9]
    ps = van_der_corput(3, 40)
    for stride in ("all", "dyadic", [5, 17, 40]):
        assert [r.N for r in trajectory(ps, stride)] == checkpoints(stride, 40)


def test_trajectory_custom_stride():
    ps = van_der_corput(2, 50)
    recs = trajectory(ps, [1, 10, 50])
    assert [r.N for r in recs] == [1, 10, 50]
    assert recs[0].normalized is None
    for n, rec in zip((1, 10, 50), recs):
        assert rec.dstar == pytest.approx(star_discrepancy(ps, n), abs=1e-16)


def test_trajectory_validation():
    ps = van_der_corput(2, 10)
    with pytest.raises(ValueError, match="at least 2"):
        trajectory(van_der_corput(2, 1))
    with pytest.raises(ValueError, match="policy"):
        trajectory(ps, "fibonacci")
    with pytest.raises(ValueError, match="1..10"):
        trajectory(ps, [5, 11])
    with pytest.raises(ValueError, match="increasing"):
        trajectory(ps, [5, 5])
    with pytest.raises(ValueError, match="empty"):
        trajectory(ps, [])


def test_trajectory_file_roundtrip(tmp_path):
    recs = trajectory(van_der_corput(2, 20), "all")
    path = tmp_path / "traj.txt"
    write_trajectory(recs, path)
    back = read_trajectory(path)
    assert len(back) == len(recs)
    assert back[0].normalized is None  # empty field survives the round trip
    for a, b in zip(recs, back):
        assert a.N == b.N
        assert b.dstar == pytest.approx(a.dstar, rel=1e-8)
        assert b.running_max == pytest.approx(a.running_max, rel=1e-8)


def test_trajectory_record_line(tmp_path):
    recs = trajectory(van_der_corput(2, 3), "all")
    assert [r.record() for r in recs] == [
        "1,0.5,0.5,,0",
        "2,0.5,1,1.44269504,1.44269504",  # 1 / ln 2
        "3,0.25,0.75,0.68267942,1.44269504",
    ]
    path = tmp_path / "traj.txt"
    write_trajectory(recs, path)
    assert path.read_text().splitlines()[1:] == [r.record() for r in recs]


def test_read_trajectory_rejects_malformed(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("1,0.5,0.5\n")
    with pytest.raises(ValueError, match="malformed"):
        read_trajectory(path)
