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
the matrix-free product both take O(n log n) time and O(n) memory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .waves import SignPattern


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics from one solve.

    min_pivot is the constant 1.0, the diagonal of the unit triangular
    system; it stays because the acceptance gate's nonsingularity sweep
    (criterion 7) reads it. residual_inf_norm is recomputed matrix-free
    after the refinement step.
    """

    min_pivot: float
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


def _proper_divisor_sums(x: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of (-1)^(i/l) x[l] over the proper divisors l of each i in [start, stop).

    Requires stop <= 2 * start, so every proper divisor is below start.
    Returns (hi, lo) with hi + lo the TwoSum-compensated sum. Divisor pairs
    (l, m = i/l) are swept as strided slices: all multiples of each l up
    to sqrt(stop), then all larger l for each quotient m, so the loops run
    O(sqrt(stop)) times. The order of additions is fixed.
    """
    width = stop - start
    hi = np.zeros(width)
    lo = np.zeros(width)
    alternating = np.where(np.arange(width + 2) & 1, -1.0, 1.0)
    split = math.isqrt(stop)

    def add(rows, terms):
        total = hi[rows] + terms
        lo[rows] += _two_sum_error(hi[rows], terms, total)
        hi[rows] = total

    for l in range(1, min(split, start - 1) + 1):
        m = -(-start // l)
        count = -(-stop // l) - m
        add(slice(m * l - start, None, l), x[l] * alternating[m & 1 : (m & 1) + count])
    for m in range(2, (stop - 1) // (split + 1) + 1):
        first = max(split + 1, -(-start // m))
        last = min(start, -(-stop // m))
        if first < last:
            rows = slice(first * m - start, (last - 1) * m - start + 1, m)
            add(rows, x[first:last] if m % 2 == 0 else -x[first:last])
    return hi, lo


def _substitute(rhs: np.ndarray) -> np.ndarray:
    """Forward substitution on the differenced system; coefficients in train order."""
    n = rhs.shape[0]
    x = np.zeros(n + 1)  # x[l]: coefficient of the train with span l
    half_diff = np.zeros(n)
    half_diff[1:] = np.diff(rhs) / 2.0
    for start, stop in _span_blocks(n):
        hi, lo = _proper_divisor_sums(x, start, stop)
        x[start:stop] = (hi - half_diff[start:stop]) + lo
    sums, corrections = _prefix_sums(x[:n], np.zeros(n))  # x[0] is 0
    x[n] = (rhs[0] - sums[-1]) - corrections[-1]
    return x[:0:-1].copy()


def _product(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign matrix times x (train order) as an unrounded pair (sums, corrections)."""
    n = x.shape[0]
    spans = np.zeros(n + 1)
    spans[1:] = x[::-1]
    diff_hi = np.empty(n)
    diff_lo = np.empty(n)
    sums, corrections = _prefix_sums(spans[1:], np.zeros(n))
    diff_hi[0], diff_lo[0] = sums[-1], corrections[-1]
    for start, stop in _span_blocks(n):
        hi, lo = _proper_divisor_sums(spans, start, stop)
        own = -spans[start:stop]
        total = hi + own
        diff_hi[start:stop] = 2.0 * total
        diff_lo[start:stop] = 2.0 * (lo + _two_sum_error(hi, own, total))
    return _prefix_sums(diff_hi, diff_lo)


def apply_sign_matrix(pattern: SignPattern, x: np.ndarray) -> np.ndarray:
    """Matrix-free product of the sign matrix with x.

    Computes row 1 and the row-to-row differences
    2 * sum_{l | i} (-1)^(i/l) x_l with TwoSum-compensated divisor sums,
    then a compensated prefix sum. The order of operations is fixed, so the
    result is bit-reproducible, exact on integer vectors, and free of the
    rounding drift a plain running sum would pick up (coefficients can
    dwarf the series values by orders of magnitude). Raises OverflowError
    when a finite x gives a product beyond the float64 range.
    """
    n = pattern.n
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise DimensionMismatch(f"expected a vector of length {n}, got shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sums, corrections = _product(x)
        product = sums + corrections
    if not np.all(np.isfinite(product)) and np.all(np.isfinite(x)):
        raise OverflowError(
            f"sign-matrix product overflows float64 (max |x| = {np.max(np.abs(x)):.3e})"
        )
    return product


def solve(pattern: SignPattern, rhs: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """Solve sign_matrix @ c = rhs.

    Forward substitution on the differenced system, then one refinement
    step that feeds the residual back through the substitution; the step is
    skipped when the residual is exactly zero. The reported residual is
    recomputed with apply_sign_matrix afterwards. Deterministic for fixed
    inputs. Raises OverflowError when the coefficients leave the float64
    range, which takes series values near its limit.
    """
    n = pattern.n
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (n,):
        raise DimensionMismatch(f"expected a vector of length {n}, got shape {rhs.shape}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side contains non-finite values")
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
    residual = rhs - apply_sign_matrix(pattern, x)
    report = SolveReport(
        min_pivot=1.0,
        residual_inf_norm=float(np.max(np.abs(residual))),
        refinement_steps_used=used,
        elapsed_seconds=time.perf_counter() - t0,
    )
    return x, report
