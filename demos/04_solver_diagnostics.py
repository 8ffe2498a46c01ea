"""Poke at the solver: the triangular form, refinement, determinism.

First differences of the sign system leave a triangular system with
diagonal -2 (and 1 for the slowest train), so the matrix is never
singular. This script sweeps a range of sizes and reports the residual
and whether the one refinement step ran, shows how the coefficients grow
with n, and double-checks bit-level determinism.
"""

import numpy as np

from sqwt import SignPattern, solve


def main():
    print("residual by size (forward substitution + one refinement step):")
    rng = np.random.default_rng(4)
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        rhs = rng.uniform(-100, 100, n)
        _, report = solve(SignPattern(n), rhs)
        print(f"  n={n:4d}: residual_inf={report.residual_inf_norm:.3e}  "
              f"refinement_steps={report.refinement_steps_used}")

    print("\ncoefficient growth for |V| <= 100:")
    for n in (1_000, 10_000, 100_000):
        rhs = np.random.default_rng(n).uniform(-100, 100, n)
        x, report = solve(SignPattern(n), rhs)
        print(f"  n={n:6d}: max|c| = {np.max(np.abs(x)):.3g}  "
              f"residual_inf={report.residual_inf_norm:.3e}  "
              f"({report.elapsed_seconds:.3f} s)")

    n = 2048
    rhs = np.random.default_rng(5).uniform(-100, 100, n)
    x1, _ = solve(SignPattern(n), rhs)
    x2, _ = solve(SignPattern(n), rhs)
    print(f"\nrepeat solves bit-identical: {np.array_equal(x1, x2)}")


if __name__ == "__main__":
    main()
