"""Independent oracles for the test suite.

Deliberately separate from the package: signs come from the run-length
closed form, linear systems are solved in exact Fraction arithmetic, so
expected values carry no floating-point error of their own, and the
generator's digits are drawn one at a time in Python integers.
"""

from __future__ import annotations

from fractions import Fraction


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


def solve_sign_system_sieve(n: int, rhs) -> list[Fraction]:
    """Exact coefficients by forward substitution on the differenced system.

    Row 1 is sum_l x_l = V_1 and row i+1 minus row i is
    sum_{l | i} 2 (-1)^(i/l) x_l = V_{i+1} - V_i, where x_l is the coefficient
    of the train with half-wave span l. Ordered by span the differences are
    triangular with diagonal -2, so only halving divides: the cost is about
    n ln n Fraction additions, usable at n in the thousands.
    """
    v = [Fraction(float(value)) for value in rhs]
    by_span = [Fraction(0)] * (n + 1)
    divisor_sums = [Fraction(0)] * n  # sum over proper divisors l of i of (-1)^(i/l) x_l
    for l in range(1, n):
        x = divisor_sums[l] - (v[l] - v[l - 1]) / 2
        by_span[l] = x
        for i in range(2 * l, n, l):
            divisor_sums[i] += -x if (i // l) % 2 else x
    by_span[n] = v[0] - sum(by_span[1:n])
    return by_span[:0:-1]


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
    """The digit stream of `sqwt.random_series.DigitStream`, one draw per call."""

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
