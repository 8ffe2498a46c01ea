"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <k> ...: PASS` line when it succeeds
(visible under `pytest -s` or `-rA`); a failing criterion shows up as an
ordinary pytest failure. Criterion 4b runs the paper's full-scale job
(n = 10,000).
"""

import os
import subprocess
import sys
import time

import numpy as np

import sqwt
from sqwt import (
    GridSpec,
    SignPattern,
    TimeSeries,
    apply_sign_matrix,
    forward,
    generate,
    inverse,
    reconstruction_report,
    sign_at,
    solve,
)
from sqwt.fileio import read_series_values

from oracles import exact_determinant, run_length_sign, sign_matrix, solve_sign_system_exact

PAPER_VALUES = np.array([84.0, -152.0, 63.0, 98.0, -35.0, 0.0, 145.0, -14.0])
PAPER_COEFFS = np.array([170.5, -38.5, -100.5, -135.5, 195.0, -135.5, 10.5, 118.0])
PAPER_FREQS = np.array([0.25, 2 / 7, 1 / 3, 0.4, 0.5, 2 / 3, 1.0, 2.0])


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "sqwt", *args],
        capture_output=True, text=True, env=full_env,
    )


def test_criterion_1_golden_eight_point_example():
    series = TimeSeries(PAPER_VALUES, GridSpec.from_duration(8, 2.0))
    spectrum, _ = forward(series)  # warm-up: imports, BLAS init
    elapsed = min(
        _timed_forward(series) for _ in range(10)
    )
    assert np.allclose(spectrum.coefficients, PAPER_COEFFS, rtol=0, atol=1e-9)
    assert np.allclose(spectrum.frequencies, PAPER_FREQS, rtol=0, atol=1e-6)
    assert elapsed < 1e-3, f"forward took {elapsed * 1e3:.3f} ms"
    print(f"\nACCEPTANCE 1 golden 8-point example "
          f"(coeffs 1e-9, freqs 1e-6, {elapsed * 1e6:.0f} us < 1 ms): PASS")


def _timed_forward(series):
    t0 = time.perf_counter()
    forward(series)
    return time.perf_counter() - t0


def test_criterion_2_verification_sums():
    reproduced = apply_sign_matrix(SignPattern(8), PAPER_COEFFS)
    assert np.max(np.abs(reproduced - PAPER_VALUES)) <= 1e-12
    print("\nACCEPTANCE 2 coefficient sums reproduce the series (1e-12): PASS")


def test_criterion_3_frequency_law_at_scale():
    grid = GridSpec.from_duration(10000, 5.0)
    for i, expected in [(1, 0.100000), (2, 0.100010), (100, 0.101000)]:
        got = sqwt.train_frequency(grid, i)
        assert abs(got - expected) <= 5e-7, (i, got, expected)
    print("\nACCEPTANCE 3 frequency law at n=10000 (5e-7): PASS")


def test_criterion_4_scaled_generated_experiment():
    t0 = time.perf_counter()
    grid = GridSpec.from_sampling_rate(2000, 2000.0)
    series = generate(20250811, 2000, grid).series
    spectrum, _ = forward(series)
    report = reconstruction_report(series, inverse(spectrum))
    elapsed = time.perf_counter() - t0
    assert report.max_abs_error <= 1e-9, report
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4 scaled experiment n=2000 "
          f"(max err {report.max_abs_error:.2e} <= 1e-9, {elapsed:.1f}s < 30s): PASS")


def test_criterion_4_full_scale_ten_thousand():
    t0 = time.perf_counter()
    grid = GridSpec.from_sampling_rate(10000, 2000.0)
    series = generate(20250811, 10000, grid).series
    spectrum, solve_report = forward(series)
    report = reconstruction_report(series, inverse(spectrum))
    elapsed = time.perf_counter() - t0
    assert report.max_abs_error <= 1e-9, report
    print(f"\nACCEPTANCE 4b full-scale n=10000 "
          f"(max err {report.max_abs_error:.2e} <= 1e-9, residual "
          f"{solve_report.residual_inf_norm:.2e}, {elapsed:.0f}s): PASS")


def test_criterion_5_sign_rules_match_run_length_oracle():
    mismatches = 0
    for n in range(1, 257):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if sign_at(n, i, j) != run_length_sign(n, i, j):
                    mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 5 sign rules vs run-length oracle, exhaustive n<=256: PASS")


def test_criterion_6_small_systems_match_rational_oracle():
    rng = np.random.default_rng(60)
    worst = 0.0
    for n in range(1, 11):
        for _ in range(10):
            rhs = rng.uniform(-100.0, 100.0, n)
            x, _ = solve(SignPattern(n), rhs)
            exact = np.array([float(c) for c in solve_sign_system_exact(n, rhs)])
            worst = max(worst, float(np.max(np.abs(x - exact))))
    assert worst <= 1e-12, worst
    print(f"\nACCEPTANCE 6 rational oracle over 100 systems, n<=10 "
          f"(worst {worst:.2e} <= 1e-12): PASS")


def test_criterion_7_nonsingularity_sweep():
    rng = np.random.default_rng(70)
    for n in range(1, 513):
        rhs = rng.uniform(-100.0, 100.0, n)
        _, report = solve(SignPattern(n), rhs)
        assert report.min_pivot > 0.0
    print("\nACCEPTANCE 7 nonsingularity sweep n=1..512: PASS")


def test_criterion_7_exact_determinant():
    # differencing rows is unimodular and leaves a triangular system with
    # n - 1 diagonal entries of -2 and one of 1
    for n in range(1, 13):
        assert abs(exact_determinant(sign_matrix(n))) == 2 ** (n - 1), n
    print("\nACCEPTANCE 7b exact |det A_n| = 2^(n-1) for n=1..12: PASS")


def test_criterion_8_byte_identical_outputs(tmp_path):
    series = tmp_path / "series.csv"
    outputs = {}
    for tag, threads in [("a", "1"), ("b", "1"), ("c", "2")]:
        gen_out = tmp_path / f"gen_{tag}.csv"
        result = run_cli("generate", "--seed", "88", "--n", "1024", "--fs", "2000",
                         "--out", str(gen_out), "--threads", threads)
        assert result.returncode == 0, result.stderr
        outputs[f"gen_{tag}"] = gen_out.read_bytes()
    assert outputs["gen_a"] == outputs["gen_b"] == outputs["gen_c"]

    series.write_bytes(outputs["gen_a"])
    for tag, threads in [("a", "1"), ("b", "1"), ("c", "2")]:
        spec_out = tmp_path / f"spec_{tag}.json"
        rep_out = tmp_path / f"rep_{tag}.json"
        result = run_cli("analyze", str(series), "--fs", "2000",
                         "--out", str(spec_out), "--report", str(rep_out),
                         "--threads", threads)
        assert result.returncode == 0, result.stderr
        outputs[f"spec_{tag}"] = spec_out.read_bytes()
        outputs[f"rep_{tag}"] = rep_out.read_bytes()
    assert outputs["spec_a"] == outputs["spec_b"] == outputs["spec_c"]
    assert outputs["rep_a"] == outputs["rep_b"] == outputs["rep_c"]
    print("\nACCEPTANCE 8 byte-identical analyze/generate, --threads 1 vs 2: PASS")
