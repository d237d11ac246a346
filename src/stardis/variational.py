"""Per-interval area bounds and the interval-length allocation problem.

Splitting [0, 1] into intervals classed by which block of indices pins the
local shape, each interval of length L contributes at least Q(L) to the
total variation integral, where Q depends on the class:

    Q0(L) = L^2 * |s0| / 4                      (first block)
    Q1(L) = L * (4 - a^{t-1} L) / 16            (middle block)
    Q2_n(L) = L^2 * |s0| (n + |s0|) / (2 (n + 2|s0|))   (last block, step n)

with |s0| = a^{t-1}(a-2).  Minimizing the weighted sum over lengths that
tile the unit interval is a convex quadratic program; its value reproduces
the strict closed-form bound.  A sweep over candidate last-block shapes
validates Q2 from below.

Two facts of the math keep this module small.  The last-block shape area is
linear in its two right-hand slopes with nonpositive coefficients, so the
sweep takes both at the largest allowed slope and runs over the jump
position alone.  And on all of [3, 3.7] the QP's middle-block quadratic is
strictly convex with its critical point below the box, so the middle-block
length is always the box floor chi_min; both facts are asserted in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _check_domain, chi_bounds, strict_bound

__all__ = [
    "ProfileLengths",
    "ShapeInstance",
    "per_interval_bound",
    "q2_shape_sweep",
    "solve_profile_qp",
    "qp_gap_report",
]


@dataclass(frozen=True)
class ProfileLengths:
    """Optimal interval lengths: chi0 for first-block intervals, chi1 for
    middle-block intervals, chi2[n-1] for the last-block interval at step n,
    plus the objective value (the minimized total-variation lower bound)."""

    chi0: float
    chi1: float
    chi2: np.ndarray
    objective: float


@dataclass(frozen=True)
class ShapeInstance:
    """One candidate local shape on an interval of length L: a single
    positive jump at gamma, one slope to its left, up to two to its right."""

    kind: str
    a: float
    t: int
    length: float
    n: int | None = None
    jump_position: float | None = None
    jump_height: float | None = None
    left_slope: float | None = None
    right_slopes: tuple[float, ...] = ()

    def bound(self) -> float:
        return per_interval_bound(self.kind, self.a, self.t, self.length, self.n)


def _q2_area(s, n, L=1.0):
    """Q2_n(L) = L^2 |s0|(n + |s0|) / (2(n + 2|s0|)) with s = |s0|; at L = 1
    it is the QP's last-block coefficient A_n.  s, n and L may be arrays."""
    return L * L * s * (n + s) / (2.0 * (n + 2.0 * s))


def _check_step(n, at1: float) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= at1 - 1 + 1e-9:
        raise ValueError(f"step index n={n!r} must be an integer in 1..a^(t-1)-1")


def per_interval_bound(kind: str, a: float, t: int, L: float, n: int | None = None) -> float:
    """Minimum area contribution of one interval of length L in class kind.

    At L = 1 this is the area coefficient A_n of the allocation QP: "Q0"
    gives A_0 = |s0|/4 and "Q2" with step n gives A_n.
    """
    a, t = _check_domain(a, t)
    tag = str(kind).upper()
    if tag not in ("Q0", "Q1", "Q2"):
        raise ValueError(f"unknown interval class {kind!r}")
    if L < 0:
        raise ValueError(f"negative interval length L={L}")
    if (n is not None) != (tag == "Q2"):
        raise ValueError("step index n is required for Q2 and disallowed otherwise")
    at1 = a ** (t - 1)
    s = at1 * (a - 2.0)
    if tag == "Q0":
        return L * L * s / 4.0
    if tag == "Q1":
        return L * (4.0 - at1 * L) / 16.0
    _check_step(n, at1)
    return _q2_area(s, n, L)


def q2_shape_sweep(
    a: float, t: int, n: int, L: float, grid: int, return_shape: bool = False
):
    """Smallest area among candidate last-block shapes on a length-L interval.

    Shapes vanish at both ends, carry one positive jump at gamma, fall with
    slope s0 before it and with slopes s1 then s2 after it (switching at
    some mu >= gamma), all slopes drawn from the integer ladder -a^t..s0 plus
    the exact endpoints.  Shapes with a right-side slope above s0 - n are
    excluded: the back-line test rejects them (the left branch is strictly
    negative while the line drawn back from the firing point is positive).

    For fixed (gamma, mu) the area is linear in s1 and s2, with coefficients
    -(mu-gamma)^2/2 and -(mu-gamma)(L-mu) - (L-mu)^2/2, both <= 0.  So the
    minimum over the ladder takes s1 = s2 = s, the largest allowed slope:
    s0 - n, or a ladder integer within 1e-12 above it.  The area is then
    |s0| gamma^2 / 2 + |s| (L-gamma)^2 / 2, independent of mu, and only the
    jump position is swept, over the interior multiples of L/grid; coarser
    grids probe a subset of finer ones, so the minimum never rises under
    refinement.  Returns the swept minimum, never below the Q2 closed form,
    and with ``return_shape`` the minimizing shape.
    """
    a, t = _check_domain(a, t)
    at1 = a ** (t - 1)
    _check_step(n, at1)
    if not isinstance(grid, (int, np.integer)) or grid < 100:
        raise ValueError(f"grid resolution {grid} too coarse; need at least 100")
    if L < 0:
        raise ValueError(f"negative interval length L={L}")
    if L == 0:
        return (0.0, None) if return_shape else 0.0

    s_abs = at1 * (a - 2.0)
    s0 = -s_abs
    thr = s0 - float(n)
    s = max(thr, float(math.floor(thr + 1e-12)))
    gam = np.arange(1, grid) / grid * L
    area = 0.5 * s_abs * gam * gam - 0.5 * s * (L - gam) ** 2
    k = int(np.argmin(area))
    best = float(area[k])
    if not return_shape:
        return best
    gamma = float(gam[k])
    shape = ShapeInstance(
        kind="Q2",
        a=a,
        t=t,
        length=L,
        n=int(n),
        jump_position=gamma,
        jump_height=-s * (L - gamma) - s0 * gamma,
        left_slope=s0,
        right_slopes=(s, s),
    )
    return best, shape


def _project_weighted(y: np.ndarray, g: np.ndarray, rhs: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, g.x = rhs} with g > 0, exact.

    Solution is max(y - mu*g, 0); the correct mu is found by sorting the
    ratios y/g and solving the affine equation on the bracketing interval.
    Raises RuntimeError when no interval brackets mu (a NaN in y does that).
    """
    r = y / g
    order = np.argsort(r)
    rs = r[order]
    gy = (g * y)[order]
    g2 = (g * g)[order]
    sgy = np.cumsum(gy[::-1])[::-1]
    sg2 = np.cumsum(g2[::-1])[::-1]
    mu = (sgy - rhs) / sg2
    eps = 1e-12 * (1.0 + float(np.max(np.abs(rs))))
    lower = np.concatenate(([-math.inf], rs[:-1]))
    ok = (mu <= rs + eps) & (mu >= lower - eps)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        raise RuntimeError("projection multiplier has no bracketing interval")
    return np.maximum(y - float(mu[idx[0]]) * g, 0.0)


def _pgd_objective(C: np.ndarray, g: np.ndarray, rhs: float, seed: int) -> float:
    """Projected gradient descent for min sum C_i x_i^2 over the slice.

    Run in the rescaled variables u_i = sqrt(C_i) x_i where the objective is
    isotropic, so the iteration contracts at a rate independent of the
    spread of the coefficients.
    """
    rng = np.random.default_rng(seed)
    sq = np.sqrt(C)
    gs = g / sq
    u = rng.random(C.size)
    scale = float(gs @ u)
    u = _project_weighted(u * (rhs / scale), gs, rhs)
    prev = math.inf
    for _ in range(500):
        u = _project_weighted(0.5 * u, gs, rhs)  # step 0.25/1 on grad 2u
        obj = float(u @ u)
        if abs(prev - obj) <= 1e-16 * (1.0 + obj):
            break
        prev = obj
    return float(u @ u)


def solve_profile_qp(a: float, t: int) -> ProfileLengths:
    """Minimize the total per-interval bound over lengths tiling [0, 1].

    The middle-block length chi1 is the box floor chi_min: the reduced
    quadratic in chi1 is strictly convex on all of [3, 3.7] and its critical
    point chi_crit never exceeds chi_min (both checked over a grid of a and
    t in the tests; the second is asserted here).  The remaining program in
    (chi0, chi2) is an exact equality-constrained quadratic solved in closed
    form, then cross-checked by projected gradient descent from three random
    starts.
    """
    a, t = _check_domain(a, t)
    at1 = a ** (t - 1)
    s_abs = at1 * (a - 2.0)
    w0 = at1
    M = at1 - 1.0
    m = int(math.ceil(M - 1e-12))
    w = np.ones(m)
    if m > M:
        w[-1] = M - math.floor(M)

    cb = chi_bounds(a, t)
    assert cb.chi_crit <= cb.chi_min <= cb.chi_max, "middle-block length off the box floor"
    chi1 = cb.chi_min

    steps = np.arange(1, m + 1, dtype=float)
    A0 = s_abs / 4.0
    An = _q2_area(s_abs, steps)
    rhs = 1.0 - s_abs * chi1
    S = w0 + float(np.sum(w * A0 / An)) if m else w0
    v = A0 * rhs / S  # common marginal cost A0*chi0 = An*chi2_n
    chi0 = rhs / S
    chi2 = v / An
    q1 = s_abs * chi1 * (4.0 - at1 * chi1) / 16.0
    objective = w0 * A0 * chi0**2 + q1 + float(np.sum(w * An * chi2**2))

    residual = abs(w0 * chi0 + s_abs * chi1 + float(np.sum(w * chi2)) - 1.0)
    if residual > 1e-10:
        raise RuntimeError(f"length constraint residual {residual:.3e}")
    if m:
        stationarity = float(np.max(np.abs(A0 * chi0 - An * chi2)))
        if stationarity > 1e-9:
            raise RuntimeError(f"stationarity residual {stationarity:.3e}")

    C = np.concatenate(([w0 * A0], w * An))
    g = np.concatenate(([w0], w))
    inner = objective - q1
    for seed in (11, 22, 33):
        checked = _pgd_objective(C, g, rhs, seed)
        if abs(checked - inner) > 1e-8 * (1.0 + abs(inner)):
            raise RuntimeError(
                f"projected-gradient cross-check disagrees: {checked!r} vs {inner!r}"
            )
    return ProfileLengths(chi0, chi1, chi2, objective)


def qp_gap_report(a: float, t_values) -> list[tuple[int, float, float, float]]:
    """Rows (t, qp objective, closed-form bound, gap) for each exponent."""
    closed = strict_bound(a)
    rows = []
    for t in t_values:
        sol = solve_profile_qp(a, int(t))
        rows.append((int(t), sol.objective, closed, sol.objective - closed))
    return rows
