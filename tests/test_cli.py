from __future__ import annotations

import hashlib

import numpy as np
import pytest

from stardis.cli import CHECK_MAX_T, QP_MAX_T, SEQUENCE_MAX_COUNT, SEQUENCE_MAX_WORK, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- bound


def test_bound_optimize_strict(capsys):
    code, out, _ = run(capsys, "bound", "--family", "strict", "--optimize")
    assert code == 0
    assert "a_star=3.6207" in out
    assert "c=0.0656646796" in out


def test_bound_optimize_records(capsys):
    code, out, _ = run(
        capsys, "bound", "--family", "strong", "--optimize",
        "--a-lo", "3", "--a-hi", "3.8", "--format", "records",
    )
    assert code == 0
    family, a_star, c_star = out.strip().split(",")
    assert family == "strong"
    assert float(a_star) == pytest.approx(3.71866, abs=5e-4)
    assert float(c_star) == pytest.approx(0.0646363227, abs=1e-8)


def test_bound_single_family_eval(capsys):
    code, out, _ = run(capsys, "bound", "--family", "strict", "--a", "3.5")
    assert code == 0
    assert "bound=0.164367754" in out


def test_bound_full_report(capsys):
    code, out, _ = run(capsys, "bound", "--a", "3.5", "--format", "records")
    assert code == 0
    parts = out.strip().split(",")
    assert len(parts) == 5
    assert float(parts[0]) == 3.5


def test_bound_optimize_tol_below_floor_exits_2(capsys):
    # golden section cannot shrink below float spacing, so such a tol hung
    code, out, err = run(capsys, "bound", "--optimize", "--tol", "1e-17")
    assert code == 2
    assert out == "" and "1e-14" in err


def test_bound_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "bound", "--a", "2.5")
    assert code == 2
    assert "error:" in err


def test_bound_without_action_exits_2(capsys):
    code, _, err = run(capsys, "bound")
    assert code == 2
    assert "need --a or --optimize" in err


# --------------------------------------------------------------- discrepancy


def test_discrepancy_single_point(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0.5\n")
    code, out, _ = run(capsys, "discrepancy", str(path))
    assert code == 0
    assert "dstar=0.5" in out


def test_discrepancy_prefix_and_records(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0.1\n0.3\n0.8\n")
    code, out, _ = run(capsys, "discrepancy", str(path), "--format", "records")
    assert code == 0
    n, d = out.strip().split(",")
    assert n == "3"
    assert float(d) == pytest.approx(0.366666667, abs=1e-9)
    code, out, _ = run(capsys, "discrepancy", str(path), "--n", "1")
    assert code == 0
    assert "n=1" in out


def test_discrepancy_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "discrepancy", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def test_discrepancy_bad_prefix_exits_2(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0.5\n")
    code, _, err = run(capsys, "discrepancy", str(path), "--n", "2")
    assert code == 2


# --------------------------------------------------------------------- check


def test_check_random_set_passes(capsys):
    code, out, _ = run(capsys, "check", "--seed", "42", "--a", "3", "--t", "2")
    assert code == 0
    for prop in ("i:", "ii:", "iii:", "iv:", "v:", "vi:", "continuity[x1]:"):
        assert f"{prop} pass" in out
    assert "strict-a: pass" in out
    assert "FAIL" not in out


def test_check_deterministic_with_seed(capsys):
    _, out1, _ = run(capsys, "check", "--seed", "7", "--a", "3", "--t", "2")
    _, out2, _ = run(capsys, "check", "--seed", "7", "--a", "3", "--t", "2")
    assert out1 == out2


def test_check_records_format(capsys):
    code, out, _ = run(
        capsys, "check", "--seed", "3", "--a", "3", "--t", "2", "--format", "records"
    )
    assert code == 0
    for line in out.strip().splitlines():
        head, status = line.rsplit(",", 1)
        assert status in ("pass", "fail", "skipped")


# bend indices whose point carries no jump of f for --seed 0 at t = 7; every
# other line of that check passes
T7_SEED0_SKIPPED = frozenset((
    1486, 1540, 1555, 1566, 1569, 1602, 1658, 1661, 1664, 1672, 1685, 1699,
    1712, 1716, 1726, 1728, 1745, 1763, 1766, 1780, 1809, 1841, 1912, 1922,
    1930, 1938, 1967, 1971, 1991, 1997, 2017, 2050, 2074, 2084, 2089, 2101,
    2105, 2116, 2117, 2133, 2138, 2141, 2143, 2145, 2146, 2148, 2149, 2154,
    2158, 2159, 2165, 2171, 2174, 2176, 2177, 2178, 2179, 2180, 2182, 2183,
    2184, 2185, 2186,
))


def test_check_t7_golden_verdicts(capsys):
    # N = 2187 points: pins every verdict line at a scale beyond the smaller
    # checks, so a change to the envelope or probe arithmetic that moves any
    # verdict shows here
    code, out, _ = run(
        capsys, "check", "--a", "3", "--t", "7", "--seed", "0", "--format", "records"
    )
    expected = [f"{p},pass" for p in ("i", "ii", "iii", "iv", "v", "vi", "continuity[x1]")]
    expected += [
        f"bend[j={j}],{'skipped' if j in T7_SEED0_SKIPPED else 'pass'}"
        for j in range(2187 - 729 + 1, 2187)
    ]
    expected += [f"strict-{c},pass" for c in "abc"]
    assert len(expected) == 738
    assert code == 0
    assert out.splitlines() == expected


@pytest.mark.slow
def test_check_t8_golden_verdicts(capsys):
    # N = 6561 points at the CHECK_MAX_T cap.  Property (i) fails: f(1) comes
    # out 2.2e-12, float drift of the envelope sums past the fixed 1e-12
    # tolerance, not a property of f.  Every other line passes or is a bend
    # skipped for want of a jump; the digest pins the whole report.
    code, out, _ = run(
        capsys, "check", "--a", "3", "--t", "8", "--seed", "0", "--format", "records"
    )
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == 2196
    assert [line for line in lines if not line.endswith((",pass", ",skipped"))] == ["i,fail"]
    assert sum(line.endswith(",skipped") for line in lines) == 267
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9264024ae7e19b875b2ecb4308fa96ec87e15ddd1a02e9259766b7a519683ca1"
    )


def test_check_size_mismatch_exits_2(capsys, tmp_path):
    path = tmp_path / "p8.txt"
    path.write_text("".join(f"{(2*i-1)/16}\n" for i in range(1, 9)))
    code, _, err = run(capsys, "check", str(path), "--a", "3", "--t", "2")
    assert code == 2
    assert "N=9" in err


def test_check_point_file_input(capsys, tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "p9.txt"
    path.write_text("".join(f"{float(x)!r}\n" for x in rng.random(9)))
    code, out, _ = run(capsys, "check", str(path), "--a", "3", "--t", "2")
    assert code == 0
    assert "vi: pass" in out


def test_check_duplicate_values_fail_continuity(capsys, tmp_path):
    # all points coincident: f jumps at x_1, the continuity check must say so
    path = tmp_path / "dup.txt"
    path.write_text("0.5\n" * 9)
    code, out, _ = run(capsys, "check", str(path), "--a", "3", "--t", "2")
    assert code == 1
    assert "continuity[x1]: FAIL" in out
    assert "strict: skipped" in out


def test_check_non_integer_scale_skips_strict(capsys):
    code, out, _ = run(capsys, "check", "--seed", "5", "--a", "3.5", "--t", "2")
    assert code == 0
    assert "strict: skipped" in out
    assert "vi: pass" in out


def test_check_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--a", "3", "--t", "2")
    assert code == 2
    path = tmp_path / "p.txt"
    path.write_text("0.5\n")
    code, _, err = run(
        capsys, "check", str(path), "--seed", "1", "--a", "3", "--t", "2"
    )
    assert code == 2


def test_check_t_above_cap_exits_2(capsys):
    code, out, err = run(capsys, "check", "--seed", "0", "--a", "3", "--t", str(CHECK_MAX_T + 1))
    assert code == 2
    assert out == "" and "limit 8" in err


def test_check_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "check", "--seed", "1", "--a", "2.9", "--t", "2")
    assert code == 2
    assert err == "error: base a=2.9 outside [3.0, 3.7]\n"  # the bounds wording


# ------------------------------------------------------------------------ qp


def test_qp_single_t(capsys):
    code, out, _ = run(capsys, "qp", "--a", "3", "--t", "3")
    assert code == 0
    assert "qp=0.141436314" in out
    assert "gap=0.0026973953" in out


def test_qp_range_records(capsys):
    code, out, _ = run(
        capsys, "qp", "--a", "3", "--t", "3..8", "--format", "records"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    gaps = [float(line.split(",")[3]) for line in lines]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_qp_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "qp", "--a", "4", "--t", "3")
    assert code == 2
    assert "error:" in err


def test_qp_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "qp", "--a", "3", "--t", "8..3")
    assert code == 2


@pytest.mark.parametrize("spec", [str(QP_MAX_T + 1), f"3..{QP_MAX_T + 1}", f"{QP_MAX_T + 1}..{QP_MAX_T + 2}"])
def test_qp_t_above_cap_exits_2(capsys, spec):
    code, out, err = run(capsys, "qp", "--a", "3", "--t", spec)
    assert code == 2
    assert out == "" and "limit 12" in err


def test_qp_range_far_below_one_fails_fast(capsys):
    # the range is never listed out: its first value fails the t >= 1 check
    code, _, err = run(capsys, "qp", "--a", "3", "--t=-1000000000000..2")
    assert code == 2
    assert "t=-1000000000000 must be a positive integer" in err


# ------------------------------------------------------------------ sequence


def test_sequence_vdc_writes_trajectory(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STARDIS_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "sequence", "vdc", "--base", "2", "--count", "4096")
    assert code == 0
    assert f"file={tmp_path}" in out
    assert (tmp_path / "trajectory_vdc.txt").exists()
    peak = float(out.strip().rsplit("max_normalized=", 1)[1])
    assert peak == pytest.approx(1.4426950408889634, abs=1e-9)


def test_sequence_explicit_output_wins(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STARDIS_OUTPUT_DIR", str(tmp_path / "ignored"))
    target = tmp_path / "here.txt"
    code, out, _ = run(
        capsys, "sequence", "vdc", "--base", "2", "--count", "16",
        "--output", str(target),
    )
    assert code == 0
    assert target.exists()


def test_sequence_records_format(capsys, tmp_path):
    code, out, _ = run(
        capsys, "sequence", "kronecker", "--count", "10",
        "--stride", "all", "--output", str(tmp_path / "t.txt"),
        "--format", "records",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    first = lines[0].split(",")
    assert first[0] == "1" and first[3] == ""  # no normalized value at N=1


def test_sequence_custom_stride(capsys, tmp_path):
    code, out, _ = run(
        capsys, "sequence", "vdc", "--base", "3", "--count", "30",
        "--stride", "3,9,27", "--output", str(tmp_path / "t.txt"),
        "--format", "records",
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()] == ["3", "9", "27"]


def test_sequence_bad_base_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "sequence", "vdc", "--base", "1", "--count", "4",
        "--output", str(tmp_path / "t.txt"),
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("kind", ["vdc", "kronecker"])
def test_sequence_count_above_cap_exits_2(capsys, tmp_path, kind):
    target = tmp_path / "t.txt"
    code, out, err = run(
        capsys, "sequence", kind, "--count", str(SEQUENCE_MAX_COUNT + 1),
        "--output", str(target),
    )
    assert code == 2
    assert out == "" and "limit 1000000" in err
    assert not target.exists()


@pytest.mark.parametrize("stride", ["all", ",".join(map(str, range(1, 20_002)))])
def test_sequence_checkpoint_work_above_cap_exits_2(capsys, tmp_path, stride):
    # 1 + 2 + ... + 20 001 prefix points, one checkpoint's worth above the
    # cap; an explicit list counts like --stride all
    target = tmp_path / "t.txt"
    assert SEQUENCE_MAX_WORK == 20_000 * 20_001 // 2
    code, out, err = run(
        capsys, "sequence", "vdc", "--count", "20001", "--stride", stride,
        "--output", str(target),
    )
    assert code == 2
    assert out == "" and f"200030001 prefix points, above the sequence limit {SEQUENCE_MAX_WORK}" in err
    assert not target.exists()


def test_sequence_bad_stride_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "sequence", "vdc", "--base", "2", "--count", "4",
        "--stride", "fib", "--output", str(tmp_path / "t.txt"),
    )
    assert code == 2


# ----------------------------------------------------------------- top level


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "bound" in out and "sequence" in out
