"""The n-by-n signed coefficient system, solved through its divisor structure.

Entry (i, j) of the sign matrix is the sign of train j at subinterval i,
(-1)^floor((i-1)/l), where l = n - j + 1 is the train's half-wave span.
Row i+1 differs from row i only in the columns whose span divides i, so
first differences turn the system into

    sum_l c_l                      = V_1
    sum_{l | i} 2 (-1)^(i/l) c_l   = V_{i+1} - V_i      (i = 1 .. n-1).

Ordered by span this is lower triangular, with diagonal -2 for spans
1..n-1 and 1 for span n, so |det| = 2^(n-1) and the system is never
singular. Forward substitution runs over dyadic span blocks [L, 2L): every
proper divisor of a span in a block lies below the block. The solve and
the matrix-free product both take O(n log n) time and O(n) memory. Only
the product is compensated: the substitution sums plainly, and solve's
refinement step corrects it from the product's residual.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .waves import SignPattern, _finite_vector


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics from one solve.

    residual_inf_norm is max |rhs - A x| of the first pass, the residual
    the refinement step corrects.
    """

    residual_inf_norm: float
    refinement_steps_used: int
    elapsed_seconds: float


def _two_sum_error(a, b, total):
    """Exact rounding error of total = fl(a + b) (Knuth's TwoSum)."""
    virtual = total - a
    return (a - (total - virtual)) + (b - virtual)


def _prefix_sums(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of hi + lo as a pair (sums, corrections).

    The plain running sum is kept next to the running sum of its exact
    rounding errors (and of lo), so sums + corrections is accurate to a
    few units in the last place however long the series.
    """
    sums = np.cumsum(hi)
    errors = lo.copy()
    errors[1:] += _two_sum_error(sums[:-1], hi[1:], sums[1:])
    return sums, np.cumsum(errors)


def _span_blocks(n: int):
    """Dyadic blocks [L, 2L) covering spans 1 .. n-1."""
    start = 1
    while start < n:
        stop = min(2 * start, n)
        yield start, stop
        start = stop


def _divisor_terms(x: np.ndarray, start: int, stop: int):
    """The terms (-1)^(i/l) x[l] over the proper divisors l of each i in [start, stop).

    Requires stop <= 2 * start, so every proper divisor is below start.
    Yields (rows, terms) pairs, rows a strided slice of [0, stop - start).
    Divisor pairs (l, m = i/l) are swept as strided slices: all multiples
    of each l up to sqrt(stop), then all larger l for each quotient m, so
    the loops run O(sqrt(stop)) times. The order of the pairs is fixed.
    """
    alternating = np.where(np.arange(stop - start + 2) & 1, -1.0, 1.0)
    split = math.isqrt(stop)
    for l in range(1, min(split, start - 1) + 1):
        m = -(-start // l)
        count = -(-stop // l) - m
        yield slice(m * l - start, None, l), x[l] * alternating[m & 1 : (m & 1) + count]
    for m in range(2, (stop - 1) // (split + 1) + 1):
        first = max(split + 1, -(-start // m))
        last = min(start, -(-stop // m))
        if first < last:
            rows = slice(first * m - start, (last - 1) * m - start + 1, m)
            yield rows, x[first:last] if m % 2 == 0 else -x[first:last]


def _substitute(rhs: np.ndarray) -> np.ndarray:
    """Forward substitution with plain divisor sums; coefficients in train order."""
    n = rhs.shape[0]
    x = np.zeros(n + 1)  # x[l]: coefficient of the train with span l
    half_diff = np.zeros(n)
    half_diff[1:] = np.diff(rhs) / 2.0
    for start, stop in _span_blocks(n):
        sums = np.zeros(stop - start)
        for rows, terms in _divisor_terms(x, start, stop):
            sums[rows] += terms
        x[start:stop] = sums - half_diff[start:stop]
    x[n] = rhs[0] - x[:n].sum()  # x[0] is 0
    return x[:0:-1].copy()


def _product(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign matrix times x (train order) as an unrounded pair (sums, corrections)."""
    n = x.shape[0]
    spans = np.zeros(n + 1)
    spans[1:] = x[::-1]
    diff_hi = np.zeros(n)
    diff_lo = np.zeros(n)
    for start, stop in _span_blocks(n):
        hi, lo = diff_hi[start:stop], diff_lo[start:stop]
        own = (slice(None), -spans[start:stop])
        for rows, terms in itertools.chain(_divisor_terms(spans, start, stop), [own]):
            total = hi[rows] + terms
            lo[rows] += _two_sum_error(hi[rows], terms, total)
            hi[rows] = total
    diff_hi *= 2.0
    diff_lo *= 2.0
    sums, corrections = _prefix_sums(spans[1:], np.zeros(n))
    diff_hi[0], diff_lo[0] = sums[-1], corrections[-1]
    return _prefix_sums(diff_hi, diff_lo)


def apply_sign_matrix(pattern: SignPattern, x: np.ndarray) -> np.ndarray:
    """Matrix-free product of the sign matrix with x.

    Computes row 1 and the row-to-row differences
    2 * sum_{l | i} (-1)^(i/l) x_l with TwoSum-compensated divisor sums,
    then a compensated prefix sum. The order of operations is fixed, so the
    result is bit-reproducible, exact on integer vectors, and free of the
    rounding drift a plain running sum would pick up (coefficients can
    dwarf the series values by orders of magnitude). Takes a finite x of
    length n; OverflowError means its product leaves the float64 range.
    """
    x = _finite_vector(x, pattern.n, "x")
    with np.errstate(over="ignore", invalid="ignore"):
        sums, corrections = _product(x)
        product = sums + corrections
    if not np.all(np.isfinite(product)):
        raise OverflowError(
            f"sign-matrix product overflows float64 (max |x| = {np.max(np.abs(x)):.3e})"
        )
    return product


def solve(pattern: SignPattern, rhs: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """Solve sign_matrix @ c = rhs.

    Forward substitution with plain sums, then one refinement step that
    feeds the residual, formed by the compensated product, back through the
    substitution; the step is skipped when the residual is exactly zero.
    The coefficients come out as the exact solution rounded to nearest on
    every input the tests check. The report gives the residual before the
    step; the error after it is the round trip. Deterministic. Takes a
    finite rhs of length n; OverflowError means the coefficients leave the
    float64 range, which takes series values near its limit.
    """
    rhs = _finite_vector(rhs, pattern.n, "rhs")
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        x = _substitute(rhs)
        # The residual comes from the unrounded product: rounding A @ x to
        # doubles first would limit the correction to the spacing of the
        # series values, leaving about 40% of coefficients more than half an
        # ulp off.
        sums, corrections = _product(x)
        residual = (rhs - sums) - corrections
        used = 0
        if np.any(residual):
            x = x + _substitute(residual)
            used = 1
    if not np.all(np.isfinite(x)):
        raise OverflowError(
            f"coefficients overflow float64 (max |V| = {np.max(np.abs(rhs)):.3e}); "
            "scale the series down"
        )
    report = SolveReport(
        residual_inf_norm=float(np.max(np.abs(residual))),
        refinement_steps_used=used,
        elapsed_seconds=time.perf_counter() - t0,
    )
    return x, report
