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
    (files and witnesses print their reprs); ``values``, ``sort_order`` and
    ``distinct_values`` are arrays built once on first use and marked
    read-only, so every caller shares them without copying.
    """

    points: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def values(self) -> np.ndarray:
        """The points as a read-only float64 array, in sequence order."""
        return _frozen(np.array(self.points, dtype=float))

    @cached_property
    def sort_order(self) -> np.ndarray:
        """Stable argsort of ``values``: the indices below n, in this order,
        list the length-n prefix sorted."""
        return _frozen(np.argsort(self.values, kind="stable"))

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
    ps = PointSet(tuple(arr.tolist()))
    # seed the values cache with the checked array; np.fromiter copied the
    # input, so the cache aliases no caller array
    ps.__dict__["values"] = _frozen(arr)
    return ps


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
        steps = bp[1:] - bp[:-1]
        if (steps <= 0).any():
            raise ValueError("breakpoints must be strictly increasing")
        m = bp.size - 1
        if sl.size != m:
            raise ValueError(f"expected {m} segment slopes, got {sl.size}")
        if jp.size != m:
            raise ValueError(f"expected {m} jumps (one per breakpoint below 1), got {jp.size}")
        if not (np.isfinite(bp).all() and np.isfinite(sl).all() and np.isfinite(jp).all() and math.isfinite(anchor)):
            raise ValueError("non-finite data in piecewise-linear function")
        self.breakpoints = bp
        self.slopes = sl
        self.jumps = jp
        self.anchor = float(anchor)
        # left-limit values at every breakpoint, cumulative over segments
        vals = np.empty(m + 1)
        vals[0] = anchor
        np.cumsum(jp + sl * steps, out=vals[1:])
        vals[1:] += anchor
        self._left_values = vals

    # -- basic accessors -------------------------------------------------

    @property
    def left_values(self) -> np.ndarray:
        """f(b_k) for every breakpoint (left limits)."""
        return self._left_values

    @property
    def _parts(self) -> _Parts:
        return self.breakpoints, self._left_values, self.jumps, self.slopes

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

    def _binary(self, other: PiecewiseLinearFn, op) -> PiecewiseLinearFn:
        grid, (fl, fr, fs), (gl, gr, gs) = _on_union(self._parts, other._parts)
        left = op(fl, gl)
        return PiecewiseLinearFn(grid, op(fs, gs), op(fr, gr) - left[:-1], float(left[0]))

    def __add__(self, other: PiecewiseLinearFn) -> PiecewiseLinearFn:
        return self._binary(other, np.add)

    def __sub__(self, other: PiecewiseLinearFn) -> PiecewiseLinearFn:
        return self._binary(other, np.subtract)

    def maximum(self, other: PiecewiseLinearFn) -> PiecewiseLinearFn:
        """Pointwise maximum.

        The grid is the union of both breakpoint sets plus every strict
        interior crossing, so each segment follows one branch, chosen at its
        midpoint.
        """
        f, g = self._parts, other._parts
        grid, (fl, fr, fs), (gl, gr, gs) = _on_union(f, g)
        half = (grid[1:] - grid[:-1]) / 2
        slopes = np.where(fr + fs * half >= gr + gs * half, fs, gs)
        jumps = np.maximum(fr, gr) - np.maximum(fl[:-1], gl[:-1])
        anchor = float(np.maximum(fl[0], gl[0]))
        # a strict interior crossing splits its segment into one piece per branch
        d0 = fr - gr
        d1 = fl[1:] - gl[1:]
        cross = np.flatnonzero(np.sign(d0) * np.sign(d1) < 0)  # strict sign change
        if cross.size:
            u, v, d0 = grid[cross], grid[cross + 1], d0[cross]
            xc = u + d0 * (v - u) / (d0 - d1[cross])
            keep = (xc > u) & (xc < v)
            if keep.any():
                k, x = cross[keep], xc[keep]
                u, v, fk, gk = u[keep], v[keep], fs[k], gs[k]
                # neither function jumps at x: the right limits are left + 0.0
                fx = _affine(f, f[0].searchsorted(x) - 1, x)
                gx = _affine(g, g[0].searchsorted(x) - 1, x)
                frx, grx = fx + 0.0, gx + 0.0
                half = (x - u) / 2
                slopes[k] = np.where(fr[k] + fk * half >= gr[k] + gk * half, fk, gk)
                half = (v - x) / 2
                split = np.where(frx + fk * half >= grx + gk * half, fk, gk)
                grid = np.insert(grid, k + 1, x)
                slopes = np.insert(slopes, k + 1, split)
                jumps = np.insert(jumps, k + 1, np.maximum(frx, grx) - np.maximum(fx, gx))
        return PiecewiseLinearFn(grid, slopes, jumps, anchor)


# A PLF as the arrays (breakpoints, left values, jumps, slopes); the anchor is
# the first left value.
_Parts = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# A PLF on a grid: (left values at every grid point, right limits at every
# grid point below 1, slope on every grid segment).
_OnGrid = tuple[np.ndarray, np.ndarray, np.ndarray]


def _on_union(f: _Parts, g: _Parts) -> tuple[np.ndarray, _OnGrid, _OnGrid]:
    """The merged breakpoint grid of f and g, and each function on it.

    The grid is f's breakpoints with g's missing ones inserted, so f is
    spread (cheap when g adds few points, as a new D_n adds one point to a
    running envelope) and g is sampled.
    """
    idx = f[0].searchsorted(g[0])  # every point <= 1 = f's last, so idx indexes f
    fresh = f[0][idx] != g[0]  # g's points that f lacks
    pos = idx + fresh.cumsum() - fresh  # grid position of each of g's points
    before, x = idx[fresh], g[0][fresh]
    grid = np.insert(f[0], before, x)
    return grid, _spread(f, before, x), _sample(g, grid, pos)


def _affine(fn: _Parts, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """fn at points x inside its segments k, off its breakpoints."""
    bp, lv, jp, sl = fn
    return lv[k] + jp[k] + sl[k] * (x - bp[k])


def _spread(fn: _Parts, before: np.ndarray, x: np.ndarray) -> _OnGrid:
    """fn on its breakpoints plus the points x, none of them breakpoints,
    inserted before its breakpoints ``before``; fn is affine across each."""
    bp, lv, jp, sl = fn
    k = before - 1  # fn's segment holding each point
    xl = _affine(fn, k, x)
    # off the breakpoints the right limit is left + 0.0, as on a full grid
    return np.insert(lv, before, xl), np.insert(lv[:-1] + jp, before, xl + 0.0), np.insert(sl, before, sl[k])


def _sample(fn: _Parts, grid: np.ndarray, pos: np.ndarray) -> _OnGrid:
    """fn on grid, a superset of its breakpoints, which sit at the grid
    positions ``pos``.  Only the other grid points are interpolated."""
    bp, lv, jp, sl = fn
    seg = np.repeat(np.arange(pos.size - 1), pos[1:] - pos[:-1])  # fn's segment under each grid segment
    off = np.ones(grid.size, dtype=bool)
    off[pos] = False
    off = off.nonzero()[0]  # grid positions off fn's breakpoints
    left = np.empty(grid.size)
    left[pos] = lv
    left[off] = _affine(fn, seg[off], grid[off])
    jumps = np.zeros(grid.size - 1)
    jumps[pos[:-1]] = jp
    return left, left[:-1] + jumps, sl[seg]


def discrepancy_function(ps: PointSet, n: int) -> PiecewiseLinearFn:
    """D_n(x) = #{i <= n : x_i < x} - n*x as an exact PiecewiseLinearFn.

    Slope -n everywhere, a unit jump at each prefix point (heights summed at
    coincident values), value at a jump point equal to the left limit.  The
    sorted prefix comes from the point set's cached stable sort order, so no
    call sorts.
    """
    if not 1 <= n <= len(ps):
        raise ValueError(f"prefix length n={n} out of range 1..{len(ps)}")
    order = ps.sort_order
    prefix = ps.values[order[order < n]]  # the first n points, sorted
    edge = np.empty(n + 1, dtype=bool)  # first of each run of equal values
    edge[0] = edge[n] = True
    np.not_equal(prefix[1:], prefix[:-1], out=edge[1:n])
    edges = edge.nonzero()[0]
    locs = prefix[edges[:-1]]
    counts = edges[1:] - edges[:-1]
    zero = int(locs[0] == 0.0)  # only the smallest value can sit at 0
    bp = np.empty(locs.size + 2 - zero)
    bp[0], bp[-1] = 0.0, 1.0
    bp[1:-1] = locs[zero:]
    jumps = np.empty(bp.size - 1)
    jumps[0] = counts[0] if zero else 0
    jumps[1:] = counts[zero:]
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

