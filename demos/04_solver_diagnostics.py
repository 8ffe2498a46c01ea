"""Poke at the solver: the triangular form, compensation, determinism.

First differences of the sign system leave a triangular system with
diagonal -2 (and 1 for the slowest train), so the matrix is never
singular. The solve is one substitution that carries each coefficient as
a plain sum and the sum of its rounding errors, rounded once at the end.
This script sweeps a range of sizes and reports the largest of those
corrections and the round-trip error, shows how the coefficients grow
with n, and double-checks bit-level determinism.
"""

import numpy as np

from sqwt import SignPattern, apply_sign_matrix, solve


def round_trip_error(x, rhs):
    return np.max(np.abs(apply_sign_matrix(SignPattern(len(rhs)), x) - rhs))


def main():
    print("error by size (one compensated forward substitution):")
    rng = np.random.default_rng(4)
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        rhs = rng.uniform(-100, 100, n)
        x, report = solve(SignPattern(n), rhs)
        print(f"  n={n:4d}: largest correction={report.residual_inf_norm:.3e}  "
              f"round trip={round_trip_error(x, rhs):.3e}")

    print("\ncoefficient growth for |V| <= 100:")
    for n in (1_000, 10_000, 100_000):
        rhs = np.random.default_rng(n).uniform(-100, 100, n)
        x, report = solve(SignPattern(n), rhs)
        print(f"  n={n:6d}: max|c| = {np.max(np.abs(x)):.3g}  "
              f"largest correction={report.residual_inf_norm:.3e}  "
              f"round trip={round_trip_error(x, rhs):.3e}  "
              f"({report.elapsed_seconds:.3f} s)")

    n = 2048
    rhs = np.random.default_rng(5).uniform(-100, 100, n)
    x1, _ = solve(SignPattern(n), rhs)
    x2, _ = solve(SignPattern(n), rhs)
    print(f"\nrepeat solves bit-identical: {np.array_equal(x1, x2)}")


if __name__ == "__main__":
    main()
