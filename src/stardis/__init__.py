"""Computational machinery behind a lower bound for the one-dimensional
star-discrepancy constant: exact discrepancy profiles, admissibility checks
for two-scale comparison functions, closed-form bound families, the
interval-length allocation QP, and sequence trajectories."""
from __future__ import annotations

from . import admissibility, bounds, plf, sequences, variational
from .admissibility import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .plf import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .variational import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *plf.__all__,
    *admissibility.__all__,
    *bounds.__all__,
    *variational.__all__,
    *sequences.__all__,
]
