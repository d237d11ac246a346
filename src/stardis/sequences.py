"""Classical low-discrepancy sequences and discrepancy growth trajectories.

The normalized quantity N * D_N / ln N is what the lower-bound constant
controls from below along a subsequence; the trajectory helpers track it as
a prefix of a sequence grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plf import PointSet, make_point_set, star_discrepancy

__all__ = [
    "GOLDEN_MEAN_FRAC",
    "TrajectoryRecord",
    "van_der_corput",
    "kronecker",
    "checkpoints",
    "trajectory",
    "write_trajectory",
    "read_trajectory",
]

GOLDEN_MEAN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def van_der_corput(base: int, count: int) -> PointSet:
    """First count terms of the van der Corput sequence (radical inverse of
    1, 2, ... in the given base)."""
    if not isinstance(base, (int, np.integer)) or base < 2:
        raise ValueError(f"radical-inverse base {base!r} must be an integer >= 2")
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count {count!r} must be a positive integer")
    # one pass per digit position over all indices; a finished index adds
    # 0 * denom, which leaves x unchanged, so each x is summed as per point
    k = np.arange(1, int(count) + 1, dtype=np.int64)
    x, denom = np.zeros(k.size), 1.0 / base
    while k.any():
        k, digit = np.divmod(k, base)
        x += digit * denom
        denom /= base
    return make_point_set(x)


def kronecker(count: int, alpha: float = GOLDEN_MEAN_FRAC) -> PointSet:
    """First count fractional parts {alpha}, {2 alpha}, ..."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count {count!r} must be a positive integer")
    pts = np.mod(np.arange(1, int(count) + 1, dtype=float) * float(alpha), 1.0)
    return make_point_set(pts)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Discrepancy of the length-N prefix: raw, scaled by N, normalized by
    ln N (undefined at N = 1), and the running maximum of the normalized
    values so far."""

    N: int
    dstar: float
    scaled: float
    normalized: float | None
    running_max: float

    def record(self) -> str:
        """The comma-separated line N,dstar,scaled,normalized,running_max,
        with the normalized field left empty at N = 1."""
        norm = "" if self.normalized is None else f"{self.normalized:.9g}"
        return f"{self.N},{self.dstar:.9g},{self.scaled:.9g},{norm},{self.running_max:.9g}"


def checkpoints(stride, total: int) -> list[int]:
    """The prefix lengths that a stride policy (see :func:`trajectory`)
    selects from a sequence of total points."""
    if isinstance(stride, str):
        if stride == "all":
            return list(range(1, total + 1))
        if stride == "dyadic":
            ns = []
            k = 2
            while k <= total:
                ns.append(k)
                k *= 2
            if not ns or ns[-1] != total:
                ns.append(total)
            return ns
        raise ValueError(f"unknown stride policy {stride!r}")
    ns = [int(n) for n in stride]
    if not ns:
        raise ValueError("stride list must not be empty")
    if any(n < 1 or n > total for n in ns):
        raise ValueError(f"stride entries must lie in 1..{total}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("stride entries must be strictly increasing")
    return ns


def trajectory(ps: PointSet, stride="dyadic") -> list[TrajectoryRecord]:
    """Discrepancy records for growing prefixes of ps at the given checkpoints.

    stride is "all", "dyadic" (powers of two plus the final length), or an
    increasing list of prefix lengths.
    """
    if len(ps) < 2:
        raise ValueError("trajectory needs at least 2 points")
    records: list[TrajectoryRecord] = []
    running = 0.0
    for n in checkpoints(stride, len(ps)):
        d = star_discrepancy(ps, n)
        normalized = n * d / math.log(n) if n > 1 else None
        if normalized is not None:
            running = max(running, normalized)
        records.append(TrajectoryRecord(n, d, n * d, normalized, running))
    return records


def write_trajectory(records: list[TrajectoryRecord], path) -> None:
    """A header line, then one :meth:`TrajectoryRecord.record` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# N,dstar,scaled,normalized,running_max\n")
        for r in records:
            fh.write(r.record() + "\n")


def read_trajectory(path) -> list[TrajectoryRecord]:
    records: list[TrajectoryRecord] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"malformed trajectory record: {line!r}")
            records.append(
                TrajectoryRecord(
                    int(parts[0]),
                    float(parts[1]),
                    float(parts[2]),
                    float(parts[3]) if parts[3] else None,
                    float(parts[4]),
                )
            )
    return records
