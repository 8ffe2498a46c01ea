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
and nothing of size n*n is formed. Both sweeps are compensated: every add
keeps its exact rounding error (Knuth's TwoSum) in a second vector, so an
entry is an unrounded pair (hi, lo), rounded once at the end.
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

    residual_inf_norm is max |lo|, the largest compensation term added to
    the plain sums; refinement_steps_used is 1 if any term is nonzero, else
    0. Neither is a residual: the error after the solve is the round trip.
    """

    residual_inf_norm: float
    refinement_steps_used: int
    elapsed_seconds: float


def _two_sum_error(a, b, total):
    """Exact rounding error of total = fl(a + b) (Knuth's TwoSum)."""
    virtual = total - a
    return (a - (total - virtual)) + (b - virtual)


def _total(hi: np.ndarray, lo) -> tuple[float, float]:
    """The total of hi + lo as a pair (sum, correction), summed in index order.

    The plain running sum of hi is kept next to the running sum of its
    exact rounding errors and of lo; only the last entry of each is kept.
    """
    sums = np.cumsum(hi)
    errors = np.r_[0.0, _two_sum_error(sums[:-1], hi[1:], sums[1:])]
    errors += lo
    return sums[-1], np.cumsum(errors, out=errors)[-1]


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


def _substitute(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compensated forward substitution: coefficients as an unrounded pair (hi, lo).

    Entry l of each is for the train with span l; entry 0 is zero. The
    Moebius sweep turns the halved differences d = g * x into
    y = (2 delta_2 - delta_1) * x, so x_l = -y_l + 2 x_{l/2}, added over
    dyadic blocks of l. The sweep runs on -y, which starts from the halved
    negated differences, so x needs no negation. Every add is compensated.
    """
    n = rhs.shape[0]
    hi = np.zeros(n + 1)
    lo = np.zeros(n + 1)
    hi[1:n] = rhs[:-1] - rhs[1:]
    lo[1:n] = _two_sum_error(rhs[:-1], -rhs[1:], hi[1:n])
    hi *= 0.5
    lo *= 0.5
    for rows, sources in _prime_steps(n - 1):
        _add(hi, lo, rows, -hi[sources], -lo[sources])
    for k in (1 << b for b in range((n - 1).bit_length() - 1)):  # 2 k <= n - 1
        stop = min(2 * k, (n + 1) // 2)  # rows 2 k .. 2 stop - 2, all below n
        _add(hi, lo, slice(2 * k, 2 * stop, 2), 2.0 * hi[k:stop], 2.0 * lo[k:stop])
    total, correction = _total(hi[:n], lo[:n])
    hi[n] = rhs[0] - total
    lo[n] = _two_sum_error(rhs[0], -total, hi[n]) - correction
    return hi, lo


def apply_sign_matrix(pattern: SignPattern, x: np.ndarray) -> np.ndarray:
    """Matrix-free product of the sign matrix with x.

    Computes row 1, the total of x, and the row-to-row differences
    2 * sum_{l | i} (-1)^(i/l) x_l, which are zeta * y with
    y_i = -x_i + 2 x_{i/2}, by the zeta sweep, every add compensated with
    TwoSum, then a compensated prefix sum. The order of operations is
    fixed, so the result is bit-reproducible, exact on integer vectors, and
    free of the rounding drift a plain running sum would pick up
    (coefficients can dwarf the series values by orders of magnitude).
    Takes a finite x of length n; OverflowError means its product leaves
    the float64 range.
    """
    x = _finite_vector(x, pattern.n, "x")
    n = x.shape[0]
    spans = x[::-1]  # spans[l - 1]: coefficient of the train with span l
    with np.errstate(over="ignore", invalid="ignore"):
        diff_hi = np.zeros(n)
        diff_lo = np.zeros(n)
        diff_hi[1:] = 0.0 - spans[:-1]  # -x_i; a zero stays +0.0
        _add(diff_hi, diff_lo, slice(2, None, 2), 2.0 * spans[: (n - 1) // 2], 0.0)
        for rows, sources in _prime_steps(n - 1, powers=True):
            _add(diff_hi, diff_lo, rows, diff_hi[sources], diff_lo[sources])
        diff_hi *= 2.0
        diff_lo *= 2.0
        diff_hi[0], diff_lo[0] = _total(spans, 0.0)  # row 1 is the total of all coefficients
        # a compensated prefix sum: the running sum of the rounding errors
        # (and of diff_lo) is kept next to the plain one
        sums = np.cumsum(diff_hi)
        diff_lo[1:] += _two_sum_error(sums[:-1], diff_hi[1:], sums[1:])
        product = sums + np.cumsum(diff_lo, out=diff_lo)
    if not np.all(np.isfinite(product)):
        raise OverflowError(
            f"sign-matrix product overflows float64 (max |x| = {np.max(np.abs(x)):.3e})"
        )
    return product


def solve(pattern: SignPattern, rhs: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """Solve sign_matrix @ c = rhs.

    One forward substitution in which every add is compensated with TwoSum,
    as in the compensated sums of Ogita, Rump and Oishi (SIAM J. Sci.
    Comput. 26(6), 2005): each coefficient is carried as a pair, the plain
    sum and the sum of its rounding errors, and rounded once at the end. The coefficients come
    out as the exact solution rounded to nearest on every input the tests
    check. The report gives the largest correction the pairs added to the
    plain sums. Deterministic. Takes a finite rhs of length n;
    OverflowError means the coefficients leave the float64 range, which
    takes series values near its limit.
    """
    rhs = _finite_vector(rhs, pattern.n, "rhs")
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = _substitute(rhs)
        x = hi[:0:-1] + lo[:0:-1]  # lo holds no -0.0, so a zero coefficient is +0.0
    if not np.all(np.isfinite(x)):
        raise OverflowError(
            f"coefficients overflow float64 (max |V| = {np.max(np.abs(rhs)):.3e}); "
            "scale the series down"
        )
    correction = float(np.max(np.abs(lo)))
    report = SolveReport(
        residual_inf_norm=correction,
        refinement_steps_used=int(correction > 0.0),
        elapsed_seconds=time.perf_counter() - t0,
    )
    return x, report
