"""Re-measure the layer baseline figures and record them in bench/baseline.json.

    python3 bench/baseline.py

Times each figure through the same span wrappers as the traced benchmark run
(inclusive span duration of the public function), repeated on distinct
seeded inputs where the function takes a point set, in this process with
OPENBLAS/OMP/MKL threads pinned to 1.  Reports median and min per figure,
with the environment and git state, so later changes cite one harness
instead of single runs.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402
from run import git_state  # noqa: E402
from worker import environment  # noqa: E402

OUT = BENCH / "baseline.json"
REPEATS = 5


def measure(repeats: int) -> dict:
    import numpy as np
    from stardis import admissibility, plf, sequences, variational

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    figures = {}

    def record(label: str, name: str, fn) -> None:
        durations = []
        for k in range(repeats):
            tracer.spans.clear()
            fn(k)
            durations += [t1 - t0 for _sid, _p, _op, n, t0, t1, _a in tracer.spans if n == name]
        figures[label] = {
            "function": name,
            "median_ms": round(1e3 * statistics.median(durations), 3),
            "min_ms": round(1e3 * min(durations), 3),
            "samples": len(durations),
        }

    def points(N: int, k: int):
        return plf.make_point_set(np.random.default_rng(k).random(N))

    try:
        for t in (3, 4, 5, 6):
            sc = admissibility.make_scale(3.0, t)
            record(f"build_f t={t}", "admissibility.build_f", lambda k: admissibility.build_f(points(sc.N, k), sc))

        sc6 = admissibility.make_scale(3.0, 6)

        def strict(k):
            ps = points(sc6.N, k)
            f = admissibility.build_f(ps, sc6)
            admissibility.check_strict_admissibility(f, sc6, admissibility.gamma_sets_from_points(ps, sc6))

        record("strict clauses t=6", "admissibility.check_strict_admissibility", strict)
        record(
            "q2_shape_sweep grid=1600 (a=3, t=2, n=1, L=0.05)",
            "variational.q2_shape_sweep",
            lambda k: variational.q2_shape_sweep(3.0, 2, 1, 0.05, 1600),
        )
        record(
            "trajectory(vdc 5000, all)",
            "sequences.trajectory",
            lambda k: sequences.trajectory(sequences.van_der_corput(2, 5000), "all"),
        )
        record("van_der_corput(2, 1e5)", "sequences.van_der_corput", lambda k: sequences.van_der_corput(2, 100000))
    finally:
        restore()
    return figures


def main() -> int:
    figures = measure(REPEATS)
    env = environment()
    env["git"] = git_state()
    OUT.write_text(json.dumps({"repeats": REPEATS, "figures": figures, "env": env}, indent=1) + "\n")
    for label, fig in figures.items():
        print(f"{label:50s} median {fig['median_ms']:10.3f} ms  min {fig['min_ms']:10.3f} ms  n={fig['samples']}")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
