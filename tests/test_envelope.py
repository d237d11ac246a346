"""Bit-identity of the envelope fold with the oracle in ``envelope_oracle``.

f must keep the oracle's floats, bit for bit: the checks of tied inputs
fail on 1-ulp slivers of f, so one moved bit can move a verdict.  The
golden digests pin f as the oracle's engine computed it.
"""
from __future__ import annotations

import functools
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardis.admissibility import build_f, make_scale
from stardis.plf import PiecewiseLinearFn, discrepancy_function, make_point_set

from envelope_oracle import oracle_binary, oracle_build_f, oracle_discrepancy


def assert_same(f, g):
    for name in ("breakpoints", "slopes", "jumps", "left_values"):
        assert getattr(f, name).tobytes() == getattr(g, name).tobytes(), name
    assert repr(f.anchor) == repr(g.anchor)


# ------------------------------------------------------------------- inputs


def tied_points(t, member, levels=(16, 32, 64, 243)):
    """Uniform values rounded down to a coarse level grid, so values repeat
    (the tied point sets of the check-suite benchmark)."""
    level = levels[member % len(levels)]
    rng = random.Random(f"tied:{t}:{member}")
    return [math.floor(rng.random() * level) / level for _ in range(3**t)]


def seeded_points(a, t, seed):
    """The point set of ``stardis check --a a --t t --seed seed``."""
    return np.random.default_rng(seed).random(make_scale(a, t).N)


def with_zeros(t, seed, at):
    pts = seeded_points(3.0, t, seed)
    pts[list(at)] = 0.0
    return pts


def signed_zeros():
    pts = with_zeros(3, 8, [7])
    pts[1] = -0.0  # passes make_point_set and joins the jump at the origin
    return pts


CASES = {
    **{f"uniform-t{t}-s{s}": (3.0, t, seeded_points(3.0, t, s)) for t in (2, 3, 4) for s in range(4)},
    "uniform-t5-s0": (3.0, 5, seeded_points(3.0, 5, 0)),
    "uniform-t5-s1": (3.0, 5, seeded_points(3.0, 5, 1)),
    "uniform-t6-s0": (3.0, 6, seeded_points(3.0, 6, 0)),
    **{f"tied-t4-m{m}": (3.0, 4, tied_points(4, m)) for m in range(8)},
    "tied-t5-m1": (3.0, 5, tied_points(5, 1)),
    "tied-t5-m4": (3.0, 5, tied_points(5, 4)),
    "zero-first": (3.0, 3, with_zeros(3, 5, [0])),
    "zero-in-A0": (3.0, 3, with_zeros(3, 6, [4])),
    "zeros-A0-A1-A2": (3.0, 4, with_zeros(4, 7, [2, 3, 40, 75])),
    "signed-zeros": (3.0, 3, signed_zeros()),
    **{f"a{a}-t{t}": (a, t, seeded_points(a, t, 11)) for a in (3.3, 3.7) for t in (2, 3, 4)},
}


@functools.cache
def point_set(case):
    return make_point_set(CASES[case][2])


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_f_matches_parent_fold(case):
    a, t, _ = CASES[case]
    sc = make_scale(a, t)
    ps = point_set(case)
    assert_same(build_f(ps, sc), oracle_build_f(ps, sc))


@pytest.mark.parametrize(
    "case", ["tied-t4-m0", "tied-t4-m3", "zeros-A0-A1-A2", "signed-zeros", "uniform-t3-s0", "a3.7-t3"]
)
def test_discrepancy_function_matches_parent_sort(case):
    ps = point_set(case)
    for n in range(1, len(ps) + 1):
        assert_same(discrepancy_function(ps, n), oracle_discrepancy(ps, n))


# breakpoints from a small dyadic pool, so operands share breakpoints and
# meet exactly at some of them, plus arbitrary interior ones
_POOL = [k / 16 for k in range(1, 16)]
_LARGE_POOL = [k / 64 for k in range(1, 64)]


@st.composite
def plfs(draw, max_interior=6):
    shared = draw(st.lists(st.sampled_from(_POOL), max_size=max_interior // 2))
    free = draw(st.lists(st.floats(0.01, 0.99), max_size=max_interior // 2))
    bp = [0.0] + sorted(set(shared) | set(free)) + [1.0]
    m = len(bp) - 1
    small = st.one_of(st.integers(-4, 4).map(float), st.floats(-8.0, 8.0))
    slopes = draw(st.lists(small, min_size=m, max_size=m))
    jumps = draw(st.lists(small, min_size=m, max_size=m))
    return PiecewiseLinearFn(bp, slopes, jumps, draw(small))


@settings(max_examples=150, deadline=None)
@given(plfs(), plfs())
def test_pairwise_arithmetic_matches_parent(f, g):
    assert_same(f.maximum(g), oracle_binary(f, g, "max"))
    assert_same(g.maximum(f), oracle_binary(g, f, "max"))
    assert_same(f - g, oracle_binary(f, g, "sub"))
    assert_same(f + g, oracle_binary(f, g, "add"))


def zigzag(rng):
    """40 interior breakpoints, 14 of them from a shared dyadic pool, with
    independent values in [-4, 4] on both sides of each, a third of them
    integers."""
    shared = rng.choice(_LARGE_POOL, 14, replace=False)
    bp = np.unique(np.concatenate([[0.0, 1.0], shared, rng.uniform(0.01, 0.99, 26)]))
    m = bp.size - 1
    size = 2 * m + 1
    vals = np.where(rng.random(size) < 1 / 3, rng.integers(-4, 5, size), rng.uniform(-4, 4, size))
    left, right = vals[: m + 1], vals[m + 1 :]  # left values, right limits
    return PiecewiseLinearFn(bp, (left[1:] - right) / np.diff(bp), right - left[:-1], left[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_large_operand_arithmetic_matches_parent(seed):
    # two zigzags cross on many segments, meet exactly at some breakpoints,
    # and each merge inserts many points; a drawn seed makes the arrays, as
    # shrinking 160 values would not make a failure clearer
    rng = np.random.default_rng(seed)
    f, g = zigzag(rng), zigzag(rng)
    assert_same(f.maximum(g), oracle_binary(f, g, "max"))
    assert_same(g.maximum(f), oracle_binary(g, f, "max"))
    assert_same(f - g, oracle_binary(f, g, "sub"))


# ------------------------------------------------------------ golden digests


def digest(f):
    h = hashlib.sha256()
    for arr in (f.breakpoints, f.slopes, f.jumps, f.left_values):
        h.update(arr.tobytes())
    h.update(repr(f.anchor).encode())
    return h.hexdigest()[:16]


# f of `stardis check --a 3 --t t --seed s`, and of the tied t = 5 sets whose
# bend checks fail on 1-ulp slivers, as the per-merge engine computed it
GOLDEN = {
    ("seed", 3, 0): "81345c5e310197d9",
    ("seed", 3, 1): "b0a055078515253a",
    ("seed", 3, 2): "03a539e6629e4769",
    ("seed", 4, 0): "b0da477dd1d4ac29",
    ("seed", 4, 1): "c369c5ef9f8ab9e0",
    ("seed", 4, 2): "13d060d871dcf005",
    ("seed", 5, 0): "f8cd28d317d2c05a",
    ("seed", 5, 1): "6ae81ab571d7d08e",
    ("seed", 5, 2): "c53364154d639723",
    ("seed", 6, 0): "bf79f4240d603660",
    ("seed", 6, 1): "8c369868129fccfb",
    ("seed", 6, 2): "191ebbb1e4fb8dc0",
    ("tied", 5, 1): "50b54d0cfb3c8433",
    ("tied", 5, 4): "316c9fc5aacf5ec4",
}


@pytest.mark.parametrize("kind, t, k", sorted(GOLDEN))
def test_build_f_golden_digest(kind, t, k):
    pts = seeded_points(3.0, t, k) if kind == "seed" else tied_points(t, k)
    assert digest(build_f(make_point_set(pts), make_scale(3.0, t))) == GOLDEN[kind, t, k]
