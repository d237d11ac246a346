"""Tests of the benchmark itself: seeded determinism, checkers that reject
corrupted outputs, tracer patching, and a small smoke run of each workload.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkers
import tracing
import workloads
from worker import REF_PROBE_S, Runner, Tally
from workloads import WORKLOADS, Op, OpStream

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _decks(workload: str, seed: int, count: int = 3) -> list[Op]:
    stream = OpStream(workload, seed)
    return [op for i in range(count) for op in stream.deck(i)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops_and_inputs(workload):
    first, again = _decks(workload, 7), _decks(workload, 7)
    assert first == again
    assert [op.files for op in first] == [op.files for op in again]
    assert first != _decks(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_deck_holds_the_same_class_mix(workload):
    want = sorted(cls for cls, count in workloads.DECKS[workload] for _ in range(count))
    for seed in (0, 1):
        stream = OpStream(workload, seed)
        for i in range(4):
            assert sorted(op.cls for op in stream.deck(i)) == want


def test_reference_table_covers_every_pool_member():
    ref = checkers.load_reference()
    keys = {f"u{t}:{k}" for t, n in workloads.UNIFORM_POOL.items() for k in range(n)}
    keys |= {f"tied{t}:{k}" for t, n in workloads.TIED_POOL.items() for k in range(n)}
    assert keys == set(ref)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def make(workload):
        return Runner(workload, tmp_path)

    return make


def _first(workload: str, cls: str, seed: int = 3) -> Op:
    stream = OpStream(workload, seed)
    for i in range(8):
        for op in stream.deck(i):
            if op.cls == cls:
                return op
    raise AssertionError(cls)


def _run(runner, op):
    runner.write_inputs([op])
    return runner.execute(op)


def _corrupt_number(text: str, line: int = 0) -> str:
    lines = text.splitlines()
    fields = lines[line].split(",")
    for i in range(len(fields) - 1, -1, -1):
        try:
            value = float(fields[i])
        except ValueError:
            continue
        fields[i] = repr(value * (1 + 1e-4) + 1e-6)
        break
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cls", ["check-t4", "check-tied-t4"])
def test_verdict_checker_rejects_flipped_or_missing_lines(runner, cls):
    r = runner("check-suite")
    op = _first("check-suite", cls)
    rc, out = _run(r, op)
    assert r.check(op, (rc, out)) is None
    flipped = out.replace(",pass", ",fail", 1)
    assert r.check(op, (rc, flipped)) is not None
    assert r.check(op, (rc, "\n".join(out.splitlines()[:-1]))) is not None
    assert r.check(op, (1 - rc, out)) is not None


@pytest.mark.parametrize("cls", ["bound-eval", "bound-family", "bound-optimize"])
def test_bound_checkers_reject_perturbed_numbers(runner, cls):
    r = runner("bound-chain")
    op = _first("bound-chain", cls)
    rc, out = _run(r, op)
    assert r.check(op, (rc, out)) is None
    assert r.check(op, (rc, _corrupt_number(out))) is not None
    assert r.check(op, (2, out)) is not None


def test_qp_checker_rejects_objective_below_closed_form(runner):
    r = runner("bound-chain")
    op = Op("qp", argv=("qp", "--a", "3", "--t", "3..10", "--format", "records"), expect={"a": 3.0, "ts": list(range(3, 11))})
    rc, out = _run(r, op)
    assert r.check(op, (rc, out)) is None
    rows = [line.split(",") for line in out.splitlines()]
    rows[2][3] = "-1e-06"
    assert r.check(op, (rc, "\n".join(",".join(x) for x in rows))) is not None
    assert r.check(op, (rc, "\n".join(out.splitlines()[:-1]))) is not None


def test_sweep_checker_rejects_values_below_closed_form_or_rising():
    check = checkers.SweepChecker()
    e = {"a": 3.0, "t": 2, "n": 1, "L": 0.05}
    op100 = Op("sweep-t2-g100", call=(3.0, 2, 1, 0.05, 100), expect=dict(e, grid=100))
    op400 = Op("sweep-t2-g400", call=(3.0, 2, 1, 0.05, 400), expect=dict(e, grid=400))
    closed = checkers.q2_formula(3.0, 2, 1, 0.05)
    from stardis.variational import q2_shape_sweep

    v100 = q2_shape_sweep(*op100.call)
    assert check(op100, v100) is None
    assert check(op400, v100 * 1.01) is not None  # finer grid may not rise
    assert checkers.SweepChecker()(op100, closed * (1 - 1e-6)) is not None
    assert checkers.SweepChecker()(op100, float("nan")) is not None


def test_discrepancy_checker_rejects_perturbed_value(runner):
    r = runner("trajectory")
    for cls in ("discrepancy", "discrepancy-tied"):
        op = _first("trajectory", cls)
        rc, out = _run(r, op)
        assert r.check(op, (rc, out)) is None
        assert r.check(op, (rc, _corrupt_number(out))) is not None


def test_sequence_checker_rejects_corrupted_records_and_files(runner, tmp_path):
    r = runner("trajectory")
    op = Op(
        "seq-all",
        argv=("sequence", "vdc", "--count", "300", "--stride", "all", "--base", "3", "--output", "t.txt", "--format", "records"),
        expect={"kind": "vdc", "N": 300, "stride": "all", "output": "t.txt", "samples": 2, "base": 3},
    )
    rc, out = _run(r, op)
    assert r.check(op, (rc, out)) is None
    # an internally inconsistent record
    assert r.check(op, (rc, _corrupt_number(out, line=150))) is not None
    # a consistent record whose dstar is wrong: only the oracle can tell
    lines = out.splitlines()
    prev_max = float(lines[-2].split(",")[4])
    n = 300
    d = float(lines[-1].split(",")[1]) * 1.001
    norm = n * d / math.log(n)
    lines[-1] = f"{n},{d!r},{n * d!r},{norm!r},{max(prev_max, norm)!r}"
    assert r.check(op, (rc, "\n".join(lines))) is not None
    # stdout intact, file truncated
    text = (tmp_path / "t.txt").read_text().splitlines()
    (tmp_path / "t.txt").write_text("\n".join(text[:-1]) + "\n")
    assert r.check(op, (rc, out)) is not None


def test_dstar_oracles_agree_on_ties():
    pts = [0.5, 0.25, 0.25, 0.75, 0.0, 0.5]
    for n in range(1, len(pts) + 1):
        exact = float(checkers.dstar_exact(pts, n))
        assert checkers.dstar_float(pts, n) == pytest.approx(exact, abs=1e-15)
    # a single point at 0: the box [0, x) holds it for every x > 0
    assert float(checkers.dstar_exact([0.0], 1)) == 1.0


def test_tracer_patches_callers_and_restores():
    import stardis.admissibility as adm
    import stardis.cli as cli
    import stardis.plf as plf

    originals = (cli.build_f, adm.build_f, adm.discrepancy_function, plf.PiecewiseLinearFn.__sub__, cli.main)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.build_f is adm.build_f is not originals[0]
        assert adm.discrepancy_function is not originals[2]
        assert plf.PiecewiseLinearFn.__sub__ is not originals[3]
        sc = adm.make_scale(3.0, 3)
        ps = plf.make_point_set([(k * 0.618034) % 1.0 for k in range(sc.N)])
        adm.build_f(ps, sc)
    finally:
        restore()
    assert (cli.build_f, adm.build_f, adm.discrepancy_function, plf.PiecewiseLinearFn.__sub__, cli.main) == originals
    names = [s[3] for s in tracer.spans]
    assert names.count("admissibility.build_f") == 1
    assert names.count("plf.discrepancy_function") == 2 * sc.n0
    rows = {name: (dur, own) for name, dur, own, _a in tracing.self_times(tracer.spans) if name == "admissibility.build_f"}
    dur, own = rows["admissibility.build_f"]
    assert 0 <= own < dur


def test_exponent_fit_recovers_power_law():
    samples = [(n, 3e-6 * n**1.5) for n in (100, 200, 400, 800)]
    assert tracing.fit_exponent(samples) == pytest.approx(1.5)
    assert tracing.fit_exponent([(100, 1.0)]) == 0.0


def test_sweep_cells_counts_slope_pairs():
    # a=3, t=2, n=1: slopes -9..-4 are feasible (6), positions 99 x 101
    assert tracing.sweep_cells(3.0, 2, 1, 100) == 36 * 99 * 101


# classes cheap enough for a smoke run (the others take 0.1-2 s per op)
SMOKE = {
    "check-suite": ("check-t4", "check-tied-t4", "check-t5", "check-tied-t5"),
    "bound-chain": ("bound-eval", "bound-family", "bound-optimize", "sweep-t2-g100", "sweep-t3-g100"),
    "trajectory": ("discrepancy", "discrepancy-tied", "seq-kronecker-dyadic"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_deck(runner, workload):
    r = runner(workload)
    ops = [op for op in OpStream(workload, 5).deck(0) if op.cls in SMOKE[workload]]
    if workload == "trajectory":
        ops.append(
            Op(
                "seq-all",
                argv=("sequence", "kronecker", "--count", "200", "--stride", "all", "--output", "s.txt", "--format", "records"),
                expect={"kind": "kronecker", "N": 200, "stride": "all", "output": "s.txt", "samples": 2},
            )
        )
    r.write_inputs(ops)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        results = [r.run(op) for op in ops]
    finally:
        restore()
    assert [reason for _dt, reason in results if reason] == []
    wall = sum(dt for dt, _ in results)
    metrics = tracing.layer_metrics(tracer.spans, 1, wall, wall)
    for name in tracing.NAMES:
        assert f"{name}.calls" in metrics and f"{name}.self_ms" in metrics
    shares = sum(metrics[f"{m}.share"][0] for m in tracing.MODULES)
    assert 0.5 < shares <= 1.0 + 1e-9


def test_latencies_are_scaled_to_the_reference_probe_speed():
    tally = Tally()
    op = Op("x", argv=("bound",))
    tally.add(op, 0.010, None, 2 * REF_PROBE_S)  # machine at half speed
    tally.add(op, 0.030, None, REF_PROBE_S)
    assert tally.wall == pytest.approx(0.040)
    assert list(tally.scaled()) == pytest.approx([0.005, 0.030])


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    argv = [sys.executable, *cmd[1:], "--workload", "check-suite", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
