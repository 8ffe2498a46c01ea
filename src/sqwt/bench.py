"""Timing and residual harness for the solver and the matrix-free product."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linsolve import apply_sign_matrix, solve
from .waves import SignPattern

_RHS_SEED = 2024


@dataclass(frozen=True)
class BenchRow:
    """One benchmark measurement: best-of-repeats timings for one size."""

    n: int
    solve_seconds: float
    matvec_seconds: float
    residual_inf_norm: float


def bench_case(n: int, repeats: int = 1) -> BenchRow:
    """Time solve and apply_sign_matrix on a random right-hand side."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    pattern = SignPattern(n)
    rhs = np.random.default_rng(_RHS_SEED).uniform(-100.0, 100.0, n)
    best_solve = best_matvec = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        x, report = solve(pattern, rhs)
        t1 = time.perf_counter()
        apply_sign_matrix(pattern, x)
        t2 = time.perf_counter()
        best_solve = min(best_solve, t1 - t0)
        best_matvec = min(best_matvec, t2 - t1)
    return BenchRow(n, best_solve, best_matvec, report.residual_inf_norm)


def run_bench(sizes: list[int], repeats: int = 1) -> list[BenchRow]:
    """Run bench_case for every size, in the order given."""
    return [bench_case(n, repeats) for n in sizes]


def format_table(rows: list[BenchRow]) -> str:
    """Fixed-width table with one line per benchmarked size."""
    lines = [f"{'n':>8}  {'solve_s':>9}  {'matvec_s':>9}  {'residual_inf':>12}"]
    for r in rows:
        lines.append(
            f"{r.n:>8d}  {r.solve_seconds:>9.4f}  {r.matvec_seconds:>9.4f}  "
            f"{r.residual_inf_norm:>12.3e}"
        )
    return "\n".join(lines)
