"""Computational machinery behind a lower bound for the one-dimensional
star-discrepancy constant: exact discrepancy profiles, admissibility checks
for two-scale comparison functions, closed-form bound families, the
interval-length allocation QP, and sequence trajectories."""
from __future__ import annotations

from .admissibility import (
    GammaSets,
    PropertyReport,
    ScaleParams,
    Violation,
    build_f,
    check_bend_condition,
    check_properties,
    check_strict_admissibility,
    gamma_sets_from_points,
    make_scale,
)
from .bounds import (
    BoundReport,
    ChiBounds,
    chi_bounds,
    harmonic_tail_bound_check,
    make_bound_report,
    optimize_constant,
    p_function,
    q_function,
    strict_bound,
    strong_bound,
)
from .plf import (
    PiecewiseLinearFn,
    PointSet,
    counting_function,
    discrepancy_function,
    make_point_set,
    plf_range_integral,
    read_point_file,
    star_discrepancy,
    write_point_file,
)
from .sequences import (
    GOLDEN_MEAN_FRAC,
    TrajectoryRecord,
    kronecker,
    read_trajectory,
    trajectory,
    van_der_corput,
    write_trajectory,
)
from .variational import (
    ProfileLengths,
    ShapeInstance,
    per_interval_bound,
    q2_shape_sweep,
    qp_gap_report,
    solve_profile_qp,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PointSet",
    "PiecewiseLinearFn",
    "make_point_set",
    "counting_function",
    "discrepancy_function",
    "star_discrepancy",
    "plf_range_integral",
    "read_point_file",
    "write_point_file",
    "ScaleParams",
    "GammaSets",
    "Violation",
    "PropertyReport",
    "make_scale",
    "build_f",
    "check_properties",
    "check_bend_condition",
    "check_strict_admissibility",
    "gamma_sets_from_points",
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
    "ProfileLengths",
    "ShapeInstance",
    "per_interval_bound",
    "q2_shape_sweep",
    "solve_profile_qp",
    "qp_gap_report",
    "GOLDEN_MEAN_FRAC",
    "TrajectoryRecord",
    "van_der_corput",
    "kronecker",
    "trajectory",
    "write_trajectory",
    "read_trajectory",
]
