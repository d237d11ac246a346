"""Span tracing installed from outside the program.

``install`` replaces each traced public function by a wrapper everywhere a
caller looks it up: in every loaded ``stardis`` module namespace that holds
the original object (``stardis.cli.build_f`` as well as
``stardis.admissibility.build_f``), and on the class for methods.  Each call
records a span (id, parent id, op id, name, start, end, attributes) in
memory; ``write_spans`` dumps them when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Work in functions that are not traced (``PiecewiseLinearFn.value``,
``make_scale``, output formatting) counts toward the nearest traced caller.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("plf", "admissibility", "bounds", "variational", "sequences", "cli")

# (module, public name); "Class.method" names a method, with the dunder
# it is bound to where the public name is an operator
TARGETS = (
    ("plf", "discrepancy_function"),
    ("plf", "PiecewiseLinearFn.maximum"),
    ("plf", "PiecewiseLinearFn.sub"),
    ("plf", "star_discrepancy"),
    ("plf", "make_point_set"),
    ("plf", "read_point_file"),
    ("admissibility", "build_f"),
    ("admissibility", "check_properties"),
    ("admissibility", "check_bend_condition"),
    ("admissibility", "gamma_sets_from_points"),
    ("admissibility", "check_strict_admissibility"),
    ("bounds", "optimize_constant"),
    ("bounds", "chi_bounds"),
    ("bounds", "make_bound_report"),
    ("variational", "q2_shape_sweep"),
    ("variational", "solve_profile_qp"),
    ("sequences", "van_der_corput"),
    ("sequences", "kronecker"),
    ("sequences", "trajectory"),
    ("sequences", "write_trajectory"),
    ("cli", "main"),
)
_DUNDER = {"sub": "__sub__"}

NAMES = tuple(f"{mod}.{name}" for mod, name in TARGETS)


def sweep_cells(a: float, t: int, n: int, grid: int) -> int:
    """Area evaluations q2_shape_sweep makes, computed from its inputs:
    (feasible slopes)^2 pairs times a (grid-1) x (grid+1) position array."""
    at = a**t
    s0 = -(a ** (t - 1)) * (a - 2.0)
    thr = s0 - n
    ladder = {float(k) for k in range(math.ceil(-at), math.floor(s0) + 1)} | {-at, s0, thr}
    ladder = {s for s in ladder if -at - 1e-12 <= s <= s0 + 1e-12}
    feasible = sum(1 for s in ladder if s <= thr + 1e-12)
    return feasible * feasible * (grid - 1) * (grid + 1)


def _build_f_attrs(args, result):
    sc = args[1]
    return {"N": sc.N, "eligible": sc.n0 - 1, "breakpoints": int(result.breakpoints.size)}


def _scale_attrs(args, result):
    return {"N": args[1].N}


def _sweep_attrs(args, result):
    a, t, n, _L, grid = args[:5]
    return {"t": t, "grid": grid, "cells": sweep_cells(a, t, n, grid)}


def _trajectory_attrs(args, result):
    stride = args[1] if len(args) > 1 else "dyadic"
    return {"N": len(args[0]), "stride": stride if isinstance(stride, str) else "list"}


def _count_attrs(args, result):
    return {"N": int(args[1])}


# attributes recorded per span, for scaling fits and work counts
ATTRS = {
    "admissibility.build_f": _build_f_attrs,
    "admissibility.check_bend_condition": _scale_attrs,
    "admissibility.check_strict_admissibility": _scale_attrs,
    "variational.q2_shape_sweep": _sweep_attrs,
    "sequences.trajectory": _trajectory_attrs,
    "sequences.van_der_corput": _count_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._next = 1

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                attrs = attrs_of(args, result) if attrs_of and result is not None else None
                spans.append((sid, parent, self.op, name, t0, t1, attrs))

        return traced


def _resolve(mod_name: str, name: str):
    mod = importlib.import_module(f"stardis.{mod_name}")
    if "." in name:
        cls_name, meth = name.split(".")
        cls = getattr(mod, cls_name)
        attr = _DUNDER.get(meth, meth)
        return cls, attr, cls.__dict__[attr]
    return None, name, getattr(mod, name)


def install(tracer: Tracer):
    """Patch every target; returns a function that restores the originals."""
    undo = []
    namespaces = [m for n, m in sys.modules.items() if n == "stardis" or n.startswith("stardis.")]
    for mod_name, name in TARGETS:
        cls, attr, orig = _resolve(mod_name, name)
        wrapper = tracer.wrap(f"{mod_name}.{name}", orig)
        if cls is not None:
            setattr(cls, attr, wrapper)
            undo.append((cls, attr, orig))
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)
                    undo.append((ns, key, orig))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


def self_times(spans) -> list[tuple[str, float, float, dict | None]]:
    """(name, duration, self time, attributes) for every span."""
    child = defaultdict(float)
    for sid, parent, _op, _name, t0, t1, _attrs in spans:
        if parent:
            child[parent] += t1 - t0
    return [(name, t1 - t0, t1 - t0 - child[sid], attrs) for sid, _p, _op, name, t0, t1, attrs in spans]


def fit_exponent(samples) -> float:
    """Least-squares slope of log(median duration) against log(size),
    over the distinct sizes in ``samples`` ((size, seconds) pairs); 0.0 when
    fewer than two sizes were seen."""
    by_size = defaultdict(list)
    for size, sec in samples:
        by_size[size].append(sec)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(spans, decks: int, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over ``decks`` decks."""
    rows = self_times(spans)
    calls = dict.fromkeys(NAMES, 0)
    self_s = dict.fromkeys(NAMES, 0.0)
    ladders = defaultdict(list)
    for name, dur, own, attrs in rows:
        calls[name] += 1
        self_s[name] += own
        if attrs is not None:
            ladders[name].append((dur, attrs))

    out: dict[str, tuple[float, str]] = {}
    for name in NAMES:
        out[f"{name}.calls"] = (calls[name] / decks, "count/deck")
        out[f"{name}.self_ms"] = (1e3 * self_s[name] / decks, "ms/deck")
    for mod in MODULES:
        own = sum(v for n, v in self_s.items() if n.startswith(mod + "."))
        out[f"{mod}.self_ms"] = (1e3 * own / decks, "ms/deck")
        out[f"{mod}.share"] = (own / traced_wall, "ratio")

    def ladder(name, key, keep=lambda a: True):
        return [(a[key], dur) for dur, a in ladders[name] if keep(a)]

    fits = (
        ("admissibility.build_f.exp_N", ladder("admissibility.build_f", "N")),
        ("admissibility.check_bend_condition.exp_N", ladder("admissibility.check_bend_condition", "N")),
        ("admissibility.check_strict_admissibility.exp_N", ladder("admissibility.check_strict_admissibility", "N")),
        ("variational.q2_shape_sweep.exp_grid", ladder("variational.q2_shape_sweep", "grid", lambda a: a["t"] == 2)),
        ("sequences.trajectory.exp_N", ladder("sequences.trajectory", "N", lambda a: a["stride"] == "all")),
    )
    for key, samples in fits:
        out[key] = (fit_exponent(samples), "exponent")

    builds = [a for _d, a in ladders["admissibility.build_f"]]
    out["admissibility.build_f.breakpoints"] = (
        statistics.fmean(a["breakpoints"] for a in builds) if builds else 0.0,
        "count",
    )
    eligible = sum(a["eligible"] for a in builds)
    out["admissibility.bend.tested_ratio"] = (
        calls["admissibility.check_bend_condition"] / eligible if eligible else 0.0,
        "ratio",
    )
    sweeps = [a["cells"] for _d, a in ladders["variational.q2_shape_sweep"]]
    out["variational.q2_shape_sweep.cells"] = (statistics.fmean(sweeps) if sweeps else 0.0, "cells_computed")
    out["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return out


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, op, name, t0, t1, attrs in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name, "start": t0, "end": t1, "attrs": attrs}) + "\n")
