"""Print the wide-range accuracy table of README's Numerical notes.

Each of the six wide-range families of tests/test_linsolve.py, at
n = 2,000 with seed 1, is solved and multiplied back; the coefficients are
compared with the exact solution rounded to nearest (c*), the product of
the coefficients with the exact product rounded to nearest (y*), and every
sample of the round trip with its rounding bound. Run from the repository
root:

    PYTHONPATH=src python tests/wide_range_table.py
"""

import numpy as np

from oracles import sign_matrix_product_rounded, solve_sign_system_rounded
from sqwt import SignPattern, apply_sign_matrix, solve
from test_linsolve import WIDE_FAMILIES, wide_family

N = 2_000
NAMES = {
    "lognormal3": "signed lognormal(0, 3)",
    "lognormal6": "signed lognormal(0, 6)",
    "lognormal10": "signed lognormal(0, 10)",
    "lognormal20": "signed lognormal(0, 20)",
    "two_scales": "half U(±1)·1e12, half U(±1)·1e-12",
    "spikes": "U(±1) with 1e15 added at 5%",
}


def misrounded(got, exact):
    return int(np.sum(got.view(np.uint64) != exact.view(np.uint64)))


def normwise(got, exact):
    """max |got - exact| in ulp of the largest |exact|."""
    return np.max(np.abs(got - exact)) / np.spacing(np.max(np.abs(exact)))


def row(family):
    rhs = wide_family(family, N)
    x, _ = solve(SignPattern(N), rhs)
    y = apply_sign_matrix(SignPattern(N), x)
    c_exact = solve_sign_system_rounded(rhs)
    y_exact = sign_matrix_product_rounded(x)
    bound = np.sum(np.spacing(np.abs(x))) / 2 + np.spacing(np.abs(y)) / 2
    return [NAMES[family], f"{misrounded(x, c_exact):,}", f"{misrounded(y, y_exact):,}",
            f"{normwise(x, c_exact):.2g}", f"{normwise(y, y_exact):.2g}",
            f"{np.max(np.abs(y - rhs) / bound):.3g}"]


def main():
    print("| family | misrounded c | misrounded product | max\\|c - c*\\| / ulp(max\\|c*\\|) "
          "| same, product | largest round-trip error / bound |")
    print("|---|---|---|---|---|---|")
    for family in WIDE_FAMILIES:
        print("| " + " | ".join(row(family)) + " |")


if __name__ == "__main__":
    main()
