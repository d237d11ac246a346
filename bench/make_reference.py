"""Regenerate bench/reference_verdicts.json, the per-line verdict table the
check-suite checker compares against.

    python3 bench/make_reference.py

Each pool member (uniform sets from ``--seed k`` at t = 4, 5, 6 and the
tied-value point files at t = 4, 5) is run once through
``stardis check --format records``; the table keeps the exit code and one
status letter per output line (p = pass, f = fail, s = skipped).  The line
labels are implied by t (see ``checkers.canonical_heads``).  Regenerate only
when a verdict is meant to change, and say why in the commit.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from checkers import REFERENCE_PATH, encode_verdicts  # noqa: E402
from workloads import CHECK_A, TIED_POOL, UNIFORM_POOL, points_text, tied_points  # noqa: E402


def run_check(argv) -> tuple[int, str]:
    from stardis import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def main() -> int:
    entries = {}
    for t, size in UNIFORM_POOL.items():
        for k in range(size):
            rc, out = run_check(["check", "--a", CHECK_A, "--t", str(t), "--seed", str(k), "--format", "records"])
            entries[f"u{t}:{k}"] = {"exit": rc, "status": encode_verdicts(out)[1]}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for t, size in TIED_POOL.items():
            for k in range(size):
                path = os.path.join(tmp, "points.txt")
                Path(path).write_text(points_text(tied_points(t, k)))
                rc, out = run_check(["check", path, "--a", CHECK_A, "--t", str(t), "--format", "records"])
                entries[f"tied{t}:{k}"] = {"exit": rc, "status": encode_verdicts(out)[1]}
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
    REFERENCE_PATH.write_text(f'{{"a": {float(CHECK_A)},\n "entries": {{\n{rows}\n}}}}\n')
    fails = sum(e["exit"] for e in entries.values())
    print(f"wrote {len(entries)} entries ({fails} with a FAIL verdict) to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
