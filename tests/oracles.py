"""Independent oracles for the test suite.

Deliberately separate from the package: signs come from the run-length
closed form, linear systems are solved in exact Fraction or Python-integer
arithmetic, so expected values carry no floating-point error of their own,
and the generator's digits are drawn one at a time in Python integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np


def run_length_sign(n: int, i: int, j: int) -> int:
    """Closed-form sign: alternating runs of length n - j + 1, starting +1."""
    return -1 if ((i - 1) // (n - j + 1)) % 2 else 1


def sign_matrix(n: int) -> list[list[int]]:
    return [[run_length_sign(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def rational_gauss_solve(rows, rhs) -> list[Fraction]:
    """Gaussian elimination with partial pivoting over exact Fractions."""
    n = len(rhs)
    m = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(rows, rhs)]
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[pivot_row][k] == 0:
            raise ZeroDivisionError(f"singular at column {k + 1}")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            if factor:
                for c in range(k, n + 1):
                    m[r][c] -= factor * m[k][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * x[c]
        x[r] = acc / m[r][r]
    return x


def exact_determinant(rows) -> Fraction:
    """Determinant by Gaussian elimination over exact Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            if factor:
                for c in range(k, n):
                    m[r][c] -= factor * m[k][c]
    return det


def solve_sign_system_exact(n: int, rhs) -> list[Fraction]:
    """Exact coefficients of the sign system; float inputs convert exactly."""
    return rational_gauss_solve(sign_matrix(n), [Fraction(float(v)) for v in rhs])


def _dirichlet_inverse(n: int) -> np.ndarray:
    """h(m) for m in [0, n), h[0] = 0: the Dirichlet inverse of (-1)^m.

    h(m) = -mu(m) for odd m and -2^(a-1) mu(o) for m = 2^a o, a >= 1, with
    the Moebius function mu sieved over every prime below n.
    """
    mu = np.ones(n + 1, dtype=np.int64)
    composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n):
        if not composite[p]:
            composite[p * p :: p] = True
            mu[::p] *= -1
            mu[:: p * p] = 0
    m = np.arange(n, dtype=np.int64)
    m[0] = 1
    low = m & -m  # 2^a
    h = -mu[m // low] * np.maximum(low // 2, 1)
    h[0] = 0
    return h


def _scaled(values) -> tuple[list[int], int]:
    """Integers k_i and a shift s with values[i] = k_i / 2**s exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    s = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (s - den.bit_length() + 1) for num, den in ratios], s


def solve_sign_system_scaled(rhs) -> tuple[list[int], int]:
    """Exact coefficients of the sign system as integers N_j over 2**s, in train order.

    Row 1 is sum_l x_l = V_1 and row i+1 minus row i is
    sum_{l | i} 2 (-1)^(i/l) x_l = V_{i+1} - V_i, where x_l is the coefficient
    of the train with half-wave span l: a Dirichlet convolution, inverted
    by h. With the differences scaled to integers D_i = 2^p (V_{i+1} - V_i),
    2^(p+1) x_l = sum_{m | l} h(m) D_{l/m} for l < n, one strided sweep per
    m over a Python-integer array, and 2^(p+1) x_n = 2^(p+1) V_1 minus the
    others. About n ln n integer additions: seconds at n = 10^6.
    """
    v, p = _scaled(rhs)
    n = len(v)
    v = np.array(v, dtype=object)
    d = np.zeros(n, dtype=object)
    d[1:] = v[1:] - v[:-1]
    acc = np.zeros(n, dtype=object)
    for m, h in enumerate(_dirichlet_inverse(n).tolist()):
        if h:
            acc[m::m] += h * d[1 : (n - 1) // m + 1]
    by_span = acc.tolist()
    by_span[0] = 2 * v[0] - sum(by_span)  # acc[0] is 0; this is span n
    return by_span[:1] + by_span[:0:-1], p + 1


def solve_sign_system_rounded(rhs) -> np.ndarray:
    """The exact coefficients rounded to nearest double (Python's int / int)."""
    numerators, s = solve_sign_system_scaled(rhs)
    return np.array([k / (1 << s) for k in numerators], dtype=np.float64)


def sign_matrix_product_rounded(x) -> np.ndarray:
    """sign_matrix @ x exact, rounded to nearest double; x in train order.

    Row 1 is sum_l x_l, and row i+1 adds sum_{m l = i} 2 (-1)^m x_l to row
    i: one strided sweep per m over the scaled integers, then one running
    sum.
    """
    k, s = _scaled(x)
    n = len(k)
    by_span = np.zeros(n, dtype=object)
    by_span[1:] = k[:0:-1]  # spans 1 .. n-1
    steps = np.zeros(n, dtype=object)
    for m in range(1, n):
        steps[m::m] += (2 if m % 2 == 0 else -2) * by_span[1 : (n - 1) // m + 1]
    steps[0] = sum(k)
    return np.array([r / (1 << s) for r in itertools.accumulate(steps.tolist())])


MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# largest multiple of 10 below 2**64; draws at or above it are rejected
REJECT_ABOVE = (1 << 64) - ((1 << 64) % 10)


def mix64(z: int) -> int:
    """splitmix64's output mix of one 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class ScalarDigitStream:
    """The digits of `sqwt.random_series._digits`, one draw per call."""

    def __init__(self, seed: int):
        self.state = seed

    def next_digit(self) -> int:
        while True:
            self.state = (self.state + GAMMA) & MASK64
            z = mix64(self.state)
            if z < REJECT_ABOVE:
                return z % 10


def next_value(stream) -> float:
    """Map the next eight digits of a stream to one value.

    A first digit of 0-4 makes the value negative, 5-9 positive; digits two
    and three are the integer part, the last five the fractional part. A
    zero magnitude comes out as +0.0 regardless of the sign digit.
    """
    d = [stream.next_digit() for _ in range(8)]
    scaled = (
        (10 * d[1] + d[2]) * 100000
        + d[3] * 10000
        + d[4] * 1000
        + d[5] * 100
        + d[6] * 10
        + d[7]
    )
    value = scaled / 100000.0
    if d[0] <= 4 and scaled:
        return -value
    return value


def golden_10000() -> dict[str, str]:
    """sha256 of each output of the paper's pipeline on `sqwt generate --seed 42 --n 10000
    --fs 2000`, by file name, from golden_10000.sha256 (as `sha256sum -c` reads it)."""
    lines = Path(__file__).with_name("golden_10000.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}
