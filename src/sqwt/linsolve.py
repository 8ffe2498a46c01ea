"""The n-by-n signed coefficient system, solved through its divisor structure.

Entry (i, j) of the sign matrix is the sign of train j at subinterval i,
(-1)^floor((i-1)/l), where l = n - j + 1 is the train's half-wave span.
Row i+1 differs from row i only in the columns whose span divides i, so
first differences turn the system into

    sum_l c_l                      = V_1
    sum_{l | i} 2 (-1)^(i/l) c_l   = V_{i+1} - V_i      (i = 1 .. n-1).

Ordered by span this is lower triangular, with diagonal -2 for spans
1..n-1 and 1 for span n, so |det| = 2^(n-1) and the system is never
singular. The halved differences are a Dirichlet convolution g * c with
g(k) = (-1)^k, and g = zeta * (2 delta_2 - delta_1), where zeta is 1
everywhere and delta_k is the unit at k (Apostol, Introduction to Analytic
Number Theory, 1976, ch. 2; the structure of Tufts and Sadasiv's
arithmetic Fourier transform). zeta is the product over primes p of
1 / (1 - delta_p), so both directions are sweeps over the primes up to
n - 1: the solve's Moebius sweep applies 1 - delta_p once per prime and
then undoes 2 delta_2 - delta_1 in log2 n doubling slices; the product
applies 2 delta_2 - delta_1 and then the zeta sweep. Primes above
sqrt(n) go in one batch per multiplier. Each sweep does about
n * sum_{p <= n} 1/p element operations (3n at n = 10^6) in O(n) memory,
and nothing of size n*n is formed. Only the product is compensated: the
solve sums plainly, and its refinement step corrects it from the
product's residual.
"""

from __future__ import annotations

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
    """Running sums of hi + lo as a pair (sums, corrections); lo is overwritten.

    The plain running sum is kept next to the running sum of its exact
    rounding errors (and of lo), so sums + corrections is accurate to a
    few units in the last place however long the series.
    """
    sums = np.cumsum(hi)
    lo[1:] += _two_sum_error(sums[:-1], hi[1:], sums[1:])
    return sums, np.cumsum(lo)


def _add(hi, lo, rows, terms, terms_lo):
    """hi[rows] + lo[rows] += terms + terms_lo, keeping hi's rounding error in lo.

    hi is assigned last, so terms may be a view of hi that overlaps rows.
    """
    total = hi[rows] + terms
    lo[rows] += terms_lo + _two_sum_error(hi[rows], terms, total)
    hi[rows] = total


def _prime_steps(m: int, powers: bool = False):
    """The steps of the prime sweeps over indices 1 .. m, as (rows, sources) pairs.

    y[rows] -= y[sources] applies the Dirichlet factor 1 - delta_q, and
    y[rows] += y[sources] applies 1 + delta_q; numpy reads the sources
    before it writes a row. With one q per prime, the subtracting sweep is
    the Moebius transform. With powers, which adds q = p^2, p^4, ... <= m,
    the adding sweep is the zeta transform, since 1 / (1 - delta_p) =
    (1 + delta_p)(1 + delta_{p^2})(1 + delta_{p^4})...  Each prime up to
    sqrt(m) gives strided slices. A prime p above sqrt(m) has only the
    multiples j p with j < sqrt(m), and no other prime above sqrt(m)
    divides them, so one index array per multiplier j covers every such
    p <= m // j, all with the one source j. The order is fixed.
    """
    split = math.isqrt(m)
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, split + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
            q = p
            while q <= m:
                yield slice(q, m + 1, q), slice(1, m // q + 1)
                if not powers:
                    break
                q *= q
    large = np.flatnonzero(is_prime[split + 1 :]) + (split + 1)
    for j in range(1, split + 1):
        count = np.searchsorted(large, m // j, "right")
        if not count:
            break
        yield j * large[:count], j


def _substitute(rhs: np.ndarray) -> np.ndarray:
    """Forward substitution with plain sums; coefficients in train order.

    The Moebius sweep turns the halved differences d = g * x into
    y = (2 delta_2 - delta_1) * x, so x_l = -y_l + 2 x_{l/2}, added over
    dyadic blocks of l.
    """
    n = rhs.shape[0]
    y = np.zeros(n + 1)
    y[1:n] = np.diff(rhs) / 2.0
    for rows, sources in _prime_steps(n - 1):
        y[rows] -= y[sources]
    x = 0.0 - y  # x[l]: coefficient of the train with span l; -y would give -0.0
    for k in (1 << b for b in range((n - 1).bit_length() - 1)):  # 2 k <= n - 1
        doubled = x[2 * k : 4 * k : 2]
        doubled += 2.0 * x[k : k + doubled.size]
    x[n] = rhs[0] - x[:n].sum()  # x[0] is 0
    return x[:0:-1].copy()


def _product(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign matrix times x (train order) as an unrounded pair (sums, corrections).

    The row differences are D = zeta * y with y_i = -x_i + 2 x_{i/2}: every
    add of the zeta sweep is compensated.
    """
    n = x.shape[0]
    spans = x[::-1]  # spans[l - 1]: coefficient of the train with span l
    diff_hi = np.zeros(n)
    diff_lo = np.zeros(n)
    diff_hi[1:] = 0.0 - spans[:-1]  # -x_i; a zero stays +0.0
    _add(diff_hi, diff_lo, slice(2, None, 2), 2.0 * spans[: (n - 1) // 2], 0.0)
    for rows, sources in _prime_steps(n - 1, powers=True):
        _add(diff_hi, diff_lo, rows, diff_hi[sources], diff_lo[sources])
    diff_hi *= 2.0
    diff_lo *= 2.0
    # row 1 is the compensated total of all coefficients: the last entry of
    # _prefix_sums(spans, zeros), without that call's n-vectors
    sums = np.cumsum(spans)
    errors = np.r_[0.0, _two_sum_error(sums[:-1], spans[1:], sums[1:])]
    diff_hi[0], diff_lo[0] = sums[-1], np.cumsum(errors)[-1]
    del sums, errors  # the final prefix sums would otherwise sit on two more n-vectors
    return _prefix_sums(diff_hi, diff_lo)


def apply_sign_matrix(pattern: SignPattern, x: np.ndarray) -> np.ndarray:
    """Matrix-free product of the sign matrix with x.

    Computes row 1 and the row-to-row differences
    2 * sum_{l | i} (-1)^(i/l) x_l by the zeta sweep, every add compensated
    with TwoSum, then a compensated prefix sum. The order of operations is
    fixed, so the result is bit-reproducible, exact on integer vectors, and
    free of the rounding drift a plain running sum would pick up
    (coefficients can dwarf the series values by orders of magnitude).
    Takes a finite x of length n; OverflowError means its product leaves
    the float64 range.
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
