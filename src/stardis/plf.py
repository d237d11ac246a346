"""Point sets, exact star discrepancy, and a piecewise-linear function engine.

The central object is :class:`PiecewiseLinearFn`, a left-continuous piecewise
linear function on [0, 1] with jump discontinuities at breakpoints.  The
discrepancy function of a point-set prefix is represented exactly in this form,
and envelope arithmetic (pointwise max, sums, differences) stays exact
because all operations resolve to affine pieces on a merged breakpoint grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PointSet",
    "PiecewiseLinearFn",
    "make_point_set",
    "discrepancy_function",
    "star_discrepancy",
    "read_point_file",
    "write_point_file",
]

@dataclass(frozen=True)
class PointSet:
    """Finite ordered sequence of reals in [0, 1).

    Order matters: the first n entries define the length-n prefix used by
    discrepancy functions.  ``points`` keeps the Python floats
    (files and witnesses print their reprs); ``values`` and
    ``distinct_values`` are float64 arrays built once on first use and
    marked read-only, so every caller shares them without copying.
    """

    points: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def values(self) -> np.ndarray:
        """The points as a read-only float64 array, in sequence order."""
        return _frozen(np.array(self.points, dtype=float))

    @cached_property
    def distinct_values(self) -> np.ndarray:
        """Sorted distinct point values as a read-only float64 array."""
        return _frozen(np.unique(self.values))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def make_point_set(values: Sequence[float] | Iterable[float]) -> PointSet:
    """Validate and wrap a sequence of reals as a PointSet.

    Rejects empty input and any value outside [0, 1) (NaN included), naming
    the first offending index.
    """
    arr = np.fromiter(values, dtype=float)
    if not arr.size:
        raise ValueError("point set must contain at least one value")
    bad = np.flatnonzero(~((arr >= 0.0) & (arr < 1.0)))  # NaN compares false
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"point at index {i} outside [0, 1): {float(arr[i])!r}")
    return PointSet(tuple(arr.tolist()))


def read_point_file(path: str | Path) -> PointSet:
    """Read one real per line; '#' starts a comment, blank lines ignored."""
    vals: list[float] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vals.append(float(line))
        except ValueError as exc:
            raise ValueError(f"unparseable point value {line!r} in {path}") from exc
    return make_point_set(vals)


def write_point_file(ps: PointSet, path: str | Path) -> None:
    Path(path).write_text("".join(f"{v!r}\n" for v in ps.points))


class PiecewiseLinearFn:
    """Left-continuous piecewise-linear function on [0, 1].

    Representation: breakpoints ``b_0 = 0 < b_1 < ... < b_m = 1``; one slope
    per segment ``(b_{k-1}, b_k]``; one jump per breakpoint ``b_0 .. b_{m-1}``
    acting strictly to the right of it (a jump stored at 0 models points
    sitting at the origin); the value at 0 (``anchor``).  The value at any
    breakpoint is the left limit.

    The constructor validates structure only.  Jump *sign* is a semantic
    property of admissible functions and is checked by the property checkers,
    so functions violating it remain constructible as counterexamples.
    """

    __slots__ = ("breakpoints", "slopes", "jumps", "anchor", "_left_values")

    def __init__(
        self,
        breakpoints: Sequence[float],
        slopes: Sequence[float],
        jumps: Sequence[float],
        anchor: float,
    ) -> None:
        bp = np.asarray(breakpoints, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        jp = np.asarray(jumps, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least breakpoints [0, 1]")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        m = bp.size - 1
        if sl.size != m:
            raise ValueError(f"expected {m} segment slopes, got {sl.size}")
        if jp.size != m:
            raise ValueError(f"expected {m} jumps (one per breakpoint below 1), got {jp.size}")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl)) and np.all(np.isfinite(jp)) and math.isfinite(anchor)):
            raise ValueError("non-finite data in piecewise-linear function")
        self.breakpoints = bp
        self.slopes = sl
        self.jumps = jp
        self.anchor = float(anchor)
        # left-limit values at every breakpoint, cumulative over segments
        vals = np.empty(m + 1)
        vals[0] = anchor
        np.cumsum(jp + sl * np.diff(bp), out=vals[1:])
        vals[1:] += anchor
        self._left_values = vals

    # -- basic accessors -------------------------------------------------

    @property
    def left_values(self) -> np.ndarray:
        """f(b_k) for every breakpoint (left limits)."""
        return self._left_values

    def value(self, x: float) -> float:
        """Evaluate with the left-continuity convention."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"evaluation point x={x} outside [0, 1]")
        return float(self.values_at(np.asarray(x, dtype=float)))

    def __call__(self, x: float) -> float:
        return self.value(x)

    def jump_at(self, x: float) -> float:
        """Jump height at x (0.0 if x is not a stored breakpoint below 1)."""
        return float(self.jumps_at(np.asarray(x, dtype=float)))

    def values_at(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`value` at every entry of xs (in [0, 1], not rechecked)."""
        bp = self.breakpoints
        # segment index k such that b_k < x <= b_{k+1}
        k = np.maximum(np.searchsorted(bp, xs, side="left") - 1, 0)
        out = self._left_values[k] + self.jumps[k] + self.slopes[k] * (xs - bp[k])
        return np.where(xs == 0.0, self.anchor, out)

    def jumps_at(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`jump_at` at every entry of xs."""
        bp, jp = self.breakpoints, self.jumps
        k = np.searchsorted(bp, xs, side="left")
        kc = np.minimum(k, jp.size - 1)
        return np.where((k < jp.size) & (bp[kc] == xs), jp[kc], 0.0)

    # -- arithmetic ------------------------------------------------------

    def _resample(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(left values, right limits, slopes) of self on a superset grid.

        ``grid`` must contain all of self's breakpoints plus possibly more;
        returns arrays aligned with grid (slopes per segment).
        """
        bp = self.breakpoints
        # grid <= 1 = bp[-1], so idx never runs past the last breakpoint
        idx = np.searchsorted(bp, grid, side="left")
        own = bp[idx] == grid
        # segment of self containing each grid point (for interpolation)
        seg = np.maximum(idx, 1) - 1
        left = self._left_values[seg] + self.jumps[seg] + self.slopes[seg] * (grid - bp[seg])
        left = np.where(own, self._left_values[idx], left)
        left[0] = self.anchor
        jumps = np.where(own & (grid < 1.0), self.jumps[np.minimum(idx, self.jumps.size - 1)], 0.0)
        right = left + jumps
        # slope on (grid[k-1], grid[k]] is self's slope of the covering segment
        slopes = self.slopes[seg[1:]]
        return left, right, slopes

    def _binary(self, other: "PiecewiseLinearFn", op: str) -> "PiecewiseLinearFn":
        grid = np.unique(np.concatenate([self.breakpoints, other.breakpoints]))
        fl, fr, fs = self._resample(grid)
        gl, gr, gs = other._resample(grid)
        if op == "add":
            left, right, slopes = fl + gl, fr + gr, fs + gs
        elif op == "sub":
            left, right, slopes = fl - gl, fr - gr, fs - gs
        else:
            # insert strict interior crossings so each segment is one branch
            d0 = fr[:-1] - gr[:-1]
            d1 = fl[1:] - gl[1:]
            cross = np.flatnonzero((d0 > 0) != (d1 > 0))
            cross = cross[(d0[cross] != 0.0) & (d1[cross] != 0.0)]
            if cross.size:
                u, v = grid[cross], grid[cross + 1]
                xc = u + d0[cross] * (v - u) / (d0[cross] - d1[cross])
                keep = (xc > u) & (xc < v)
                if keep.any():  # else the grid, and so each array, stands
                    grid = np.unique(np.concatenate([grid, xc[keep]]))
                    fl, fr, fs = self._resample(grid)
                    gl, gr, gs = other._resample(grid)
            left, right = np.maximum(fl, gl), np.maximum(fr, gr)
            # branch taken on each segment decides the slope: compare midpoints
            half = np.diff(grid) / 2
            mid_f = fr[:-1] + fs * half
            mid_g = gr[:-1] + gs * half
            slopes = np.where(mid_f >= mid_g, fs, gs)
        jumps = (right - left)[:-1]
        return PiecewiseLinearFn(grid, slopes, jumps, float(left[0]))

    def __add__(self, other: "PiecewiseLinearFn") -> "PiecewiseLinearFn":
        return self._binary(other, "add")

    def __sub__(self, other: "PiecewiseLinearFn") -> "PiecewiseLinearFn":
        return self._binary(other, "sub")

    def maximum(self, other: "PiecewiseLinearFn") -> "PiecewiseLinearFn":
        return self._binary(other, "max")


def discrepancy_function(ps: PointSet, n: int) -> PiecewiseLinearFn:
    """D_n(x) = #{i <= n : x_i < x} - n*x as an exact PiecewiseLinearFn.

    Slope -n everywhere, a unit jump at each prefix point (heights summed at
    coincident values), value at a jump point equal to the left limit.
    """
    if not 1 <= n <= len(ps):
        raise ValueError(f"prefix length n={n} out of range 1..{len(ps)}")
    locs, counts = np.unique(ps.values[:n], return_counts=True)
    interior = locs > 0.0
    bp = np.concatenate([[0.0], locs[interior], [1.0]])
    jumps = np.zeros(bp.size - 1)
    jumps[0] = counts[~interior].sum() if np.any(~interior) else 0.0
    jumps[1:] = counts[interior]
    slopes = np.full(bp.size - 1, -float(n))
    return PiecewiseLinearFn(bp, slopes, jumps, 0.0)


def star_discrepancy(ps: PointSet, n: int | None = None) -> float:
    """Exact D*_n via the sorted-points closed form.

    With the sorted prefix y_1 <= ... <= y_n,
    D*_n = max_i max(i/n - y_i, y_i - (i-1)/n); the result lies in
    [1/(2n), 1].
    """
    if n is None:
        n = len(ps)
    if not 1 <= n <= len(ps):
        raise ValueError(f"prefix length n={n} out of range 1..{len(ps)}")
    y = np.sort(ps.values[:n])
    i = np.arange(1, n + 1, dtype=float)
    return float(np.max(np.maximum(i / n - y, y - (i - 1) / n)))

