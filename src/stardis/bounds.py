"""Closed-form lower-bound families and the optimized discrepancy constant.

Two bound families in the scale base a: a strong form valid on [3, 4] and a
strict form on [3, 3.7] whose logarithmic correction comes from the harmonic
tail of the per-interval coefficients.  Dividing either by 2*ln(a) and
maximizing over a yields a lower bound c on liminf N*D_N / ln N, so that
every infinite sequence satisfies D_N >= (c - o(1)) * ln(N) / N infinitely
often.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChiBounds",
    "BoundReport",
    "strong_bound",
    "strict_bound",
    "q_function",
    "chi_bounds",
    "p_function",
    "harmonic_tail_bound_check",
    "optimize_constant",
    "make_bound_report",
]

_FAMILIES = {"strong": (3.0, 4.0), "strict": (3.0, 3.7)}
# golden section stops shrinking hi - lo at a few ulps of a (4.4e-16 near
# 3.6), so optimize_constant with a smaller tol would never return
TOL_FLOOR = 1e-14


def _lam(a: float) -> float:
    # log(1 + 1/(a-2)), the harmonic-tail limit
    return math.log1p(1.0 / (a - 2.0))


def _check_domain(
    a: float, t: int | None = None, *, hi: float = 3.7, t_min: int = 1
) -> tuple[float, int | None]:
    """Validate the base a in [3, hi] and, when given, the integer exponent
    t >= t_min; return them as (float, int)."""
    a = float(a)
    if not 3.0 <= a <= hi:
        raise ValueError(f"base a={a} outside [3.0, {hi}]")
    if t is None:
        return a, None
    if not isinstance(t, (int, np.integer)) or t < t_min:
        kind = "a positive integer" if t_min == 1 else f"an integer >= {t_min}"
        raise ValueError(f"exponent t={t} must be {kind}")
    return a, int(t)


def strong_bound(a: float) -> float:
    """Strong-form bound (a-2)(8a+3) / (8(2a-1)^2) for a in [3, 4]."""
    a, _ = _check_domain(a, hi=4.0)
    return (a - 2.0) * (8.0 * a + 3.0) / (8.0 * (2.0 * a - 1.0) ** 2)


def strict_bound(a: float) -> float:
    """Strict-form bound with logarithmic correction, for a in [3, 3.7]."""
    a, _ = _check_domain(a)
    lam = _lam(a)
    num = (a - 2.0) * (12.0 * a + 9.0 + (a - 2.0) * (4.0 * a - 3.0) * lam)
    den = 16.0 * (a - 0.5) ** 2 * (3.0 + (a - 2.0) * lam)
    return num / den


def q_function(a: float) -> float:
    """q(a) = 3a - 9 - (a-1)(a-2)log(1 + 1/(a-2)); negative on (3, 3.7]."""
    a, _ = _check_domain(a)
    return 3.0 * a - 9.0 - (a - 1.0) * (a - 2.0) * _lam(a)


@dataclass(frozen=True)
class ChiBounds:
    """Box [chi_min, chi_max] for the middle-block length, plus the
    unconstrained critical point chi_crit of the reduced quadratic."""

    chi_min: float
    chi_max: float
    chi_crit: float


def chi_bounds(a: float, t: int) -> ChiBounds:
    """Feasible box and critical point for the middle-block interval length."""
    a, t = _check_domain(a, t)
    scale = a ** (1 - t)
    lam = _lam(a)
    den = 29.0 + 8.0 * a * (a - 4.0) - (a - 2.0) * lam
    if den <= 0.0:
        raise ValueError(f"critical-point denominator not positive at a={a}")
    crit = scale * 2.0 * (4.0 * a - 11.0 - (a - 2.0) * lam) / den
    return ChiBounds(scale / (a - 0.5), scale / (a - 1.5), crit)


def p_function(a: float, t: int, chi1: float) -> float:
    """Reduced objective after eliminating the outer-block lengths.

    Quadratic in the middle-block length chi1; at chi1 = chi_min it
    collapses to strict_bound(a) for every t.
    """
    a, t = _check_domain(a, t)
    if chi1 < 0:
        raise ValueError(f"length chi1={chi1} must be nonnegative")
    lam = _lam(a)
    at1 = a ** (t - 1)
    term1 = (a - 2.0) * (1.0 - at1 * (a - 2.0) * chi1) ** 2 / (2.0 * (3.0 + (a - 2.0) * lam))
    term2 = at1 * (a - 2.0) * chi1 * (4.0 - at1 * chi1) / 16.0
    return term1 + term2


def harmonic_tail_bound_check(a: float, t: int) -> tuple[float, float]:
    """Harmonic tail sum over the last-block indices and its log bound.

    Returns (sum_{n=|s0|+1}^{a^{t-1}-1+|s0|} 1/n, log(1 + 1/(a-2))) with
    floored cardinalities; the sum never exceeds the bound.
    """
    a, t = _check_domain(a, t, t_min=2)
    s0 = math.floor(a ** (t - 1) * (a - 2.0))
    width = math.floor(a ** (t - 1)) - 1
    total = math.fsum(1.0 / k for k in range(s0 + 1, s0 + width + 1))
    return total, _lam(a)


def _phi(family: str):
    if family == "strong":
        return lambda a: strong_bound(a) / (2.0 * math.log(a))
    if family == "strict":
        return lambda a: strict_bound(a) / (2.0 * math.log(a))
    raise ValueError(f"unknown bound family {family!r}")


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def optimize_constant(
    family: str, a_lo: float, a_hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Maximize bound(a) / (2 ln a) over [a_lo, a_hi].

    A 512-point pre-scan locates the grid maximum; golden-section search
    then refines within the two grid cells around it, and the grid point is
    kept if refinement does not improve on it.  tol, the width at which
    the search stops, must be at least TOL_FLOOR.  Returns (a_star, c_star).
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown bound family {family!r}")
    dom_lo, dom_hi = _FAMILIES[family]
    if not (dom_lo <= a_lo <= a_hi <= dom_hi):
        raise ValueError(
            f"interval [{a_lo}, {a_hi}] invalid for family {family!r} with domain [{dom_lo}, {dom_hi}]"
        )
    if not tol >= TOL_FLOOR:
        raise ValueError(f"tolerance {tol} must be at least {TOL_FLOOR}")
    phi = _phi(family)
    if a_hi == a_lo:
        return a_lo, phi(a_lo)
    grid = np.linspace(a_lo, a_hi, 512)
    vals = np.array([phi(x) for x in grid])
    i = int(np.argmax(vals))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid.size - 1)])
    a_star, c_star = _golden_max(phi, lo, hi, tol)
    if vals[i] > c_star:
        a_star, c_star = float(grid[i]), float(vals[i])
    return a_star, c_star


@dataclass(frozen=True)
class BoundReport:
    """Both bound families at one base, with their normalized constants."""

    a: float
    strong_bound: float
    strict_bound: float
    c_strong: float
    c_strict: float

    def record(self) -> str:
        vals = (self.a, self.strong_bound, self.strict_bound, self.c_strong, self.c_strict)
        return ",".join(f"{v:.9g}" for v in vals)


def make_bound_report(a: float) -> BoundReport:
    """Evaluate both families at a; needs a in [3, 3.7] where both exist."""
    a, _ = _check_domain(a)
    sg, st = strong_bound(a), strict_bound(a)
    d = 2.0 * math.log(a)
    return BoundReport(a, sg, st, sg / d, st / d)
