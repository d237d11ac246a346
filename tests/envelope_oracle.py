"""The piecewise-linear engine as it was before its merges sampled each
operand only off its own breakpoints: the oracle of the envelope tests.

Every binary operation resampled both operands on the sorted union of their
breakpoints and, when ``maximum`` kept a crossing, resampled both again on
the refined grid; each D_n sorted its prefix with ``np.unique``.  The
engine in ``stardis.plf`` must give the same floats, bit for bit.
"""
from __future__ import annotations

import numpy as np


class OraclePLF:
    """Breakpoints, slopes, jumps and anchor, with the left values summed as
    the constructor sums them."""

    def __init__(self, breakpoints, slopes, jumps, anchor):
        self.breakpoints = bp = np.asarray(breakpoints, dtype=float)
        self.slopes = sl = np.asarray(slopes, dtype=float)
        self.jumps = jp = np.asarray(jumps, dtype=float)
        self.anchor = float(anchor)
        vals = np.empty(bp.size)
        vals[0] = anchor
        np.cumsum(jp + sl * np.diff(bp), out=vals[1:])
        vals[1:] += anchor
        self.left_values = vals


def oracle_resample(fn, grid):
    """(left values, right limits, slopes) of fn on a superset grid."""
    bp = fn.breakpoints
    idx = np.searchsorted(bp, grid, side="left")
    own = bp[idx] == grid
    seg = np.maximum(idx, 1) - 1
    left = fn.left_values[seg] + fn.jumps[seg] + fn.slopes[seg] * (grid - bp[seg])
    left = np.where(own, fn.left_values[idx], left)
    left[0] = fn.anchor
    jumps = np.where(own & (grid < 1.0), fn.jumps[np.minimum(idx, fn.jumps.size - 1)], 0.0)
    right = left + jumps
    slopes = fn.slopes[seg[1:]]
    return left, right, slopes


def oracle_binary(f, g, op):
    grid = np.unique(np.concatenate([f.breakpoints, g.breakpoints]))
    fl, fr, fs = oracle_resample(f, grid)
    gl, gr, gs = oracle_resample(g, grid)
    if op == "add":
        left, right, slopes = fl + gl, fr + gr, fs + gs
    elif op == "sub":
        left, right, slopes = fl - gl, fr - gr, fs - gs
    else:
        d0 = fr[:-1] - gr[:-1]
        d1 = fl[1:] - gl[1:]
        cross = np.flatnonzero((d0 > 0) != (d1 > 0))
        cross = cross[(d0[cross] != 0.0) & (d1[cross] != 0.0)]
        if cross.size:
            u, v = grid[cross], grid[cross + 1]
            xc = u + d0[cross] * (v - u) / (d0[cross] - d1[cross])
            keep = (xc > u) & (xc < v)
            if keep.any():
                grid = np.unique(np.concatenate([grid, xc[keep]]))
                fl, fr, fs = oracle_resample(f, grid)
                gl, gr, gs = oracle_resample(g, grid)
        left, right = np.maximum(fl, gl), np.maximum(fr, gr)
        half = np.diff(grid) / 2
        mid_f = fr[:-1] + fs * half
        mid_g = gr[:-1] + gs * half
        slopes = np.where(mid_f >= mid_g, fs, gs)
    jumps = (right - left)[:-1]
    return OraclePLF(grid, slopes, jumps, float(left[0]))


def oracle_discrepancy(ps, n):
    locs, counts = np.unique(ps.values[:n], return_counts=True)
    interior = locs > 0.0
    bp = np.concatenate([[0.0], locs[interior], [1.0]])
    jumps = np.zeros(bp.size - 1)
    jumps[0] = counts[~interior].sum() if np.any(~interior) else 0.0
    jumps[1:] = counts[interior]
    return OraclePLF(bp, np.full(bp.size - 1, -float(n)), jumps, 0.0)


def oracle_envelope_max(ps, indices):
    env = None
    for n in indices:
        d = oracle_discrepancy(ps, n)
        env = d if env is None else oracle_binary(env, d, "max")
    return env


def oracle_build_f(ps, sc):
    return oracle_binary(oracle_envelope_max(ps, sc.A2), oracle_envelope_max(ps, sc.A0), "sub")
