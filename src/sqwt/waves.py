"""Square-wave train geometry over a uniformly sampled interval.

A series of n samples spanning delta_t seconds is matched by n trains of
square waves. Train j holds a constant value over l_j = n - j + 1
consecutive subintervals (one half-wave), then flips sign, starting
positive, so train n alternates every subinterval and train 1 never flips.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_GRID_REL_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: n subintervals spanning delta_t seconds at f_s samples/second.

    The three fields are redundant (n = f_s * delta_t) and are checked for
    consistency to a relative tolerance of 1e-9 on construction.
    """

    n: int
    delta_t: float
    f_s: float

    def __post_init__(self):
        # plain Python numbers, as json and repr expect, whatever the caller passed
        object.__setattr__(self, "n", _check_size(self.n))
        for name in ("delta_t", "f_s"):
            rule = f"{name} must be a positive real"
            object.__setattr__(self, name, _finite_real(getattr(self, name), rule, positive=True))
        if abs(self.f_s * self.delta_t - self.n) > _GRID_REL_TOL * self.n:
            raise ValueError(
                f"inconsistent grid: f_s * delta_t = {self.f_s * self.delta_t!r} "
                f"but n = {self.n}"
            )

    @classmethod
    def from_duration(cls, n: int, delta_t: float) -> "GridSpec":
        """Grid for n samples over delta_t seconds; f_s is derived."""
        return cls(n, delta_t, _quotient(n, "delta_t", delta_t))

    @classmethod
    def from_sampling_rate(cls, n: int, f_s: float) -> "GridSpec":
        """Grid for n samples at f_s samples/second; delta_t is derived."""
        return cls(n, _quotient(n, "f_s", f_s), f_s)


def _is_integer(value) -> bool:  # a bool is not a size, an index or a seed
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _digit_count(whole: int) -> int:
    """Decimal digits of a nonzero int: str() refuses 4,301 digits, log10 is off by at most one."""
    whole = abs(whole)  # exact, so log10 cannot overflow
    k = int(math.log10(whole))
    return k + (10**k <= whole) + (10 ** (k + 1) <= whole)


def _shown(value) -> str:
    """repr(value), or for an int or Fraction too long for repr, its digit counts."""
    try:
        return repr(value)
    except ValueError:  # Python's limit on int-to-decimal conversion
        if isinstance(value, numbers.Integral):
            return f"an integer of {_digit_count(value)} digits"
        num, den = _digit_count(value.numerator), _digit_count(value.denominator)
        return f"a {type(value).__name__} of {num} numerator and {den} denominator digits"


def _as_float(value, rule: str) -> float:
    """float(value); a value past the float range fails `rule`, named by its integer digits."""
    try:
        return float(value)
    except OverflowError:
        digits = _digit_count(int(value))  # int() is exact for an int or a Fraction
        if isinstance(value, numbers.Integral):
            raise ValueError(f"{rule}, got an integer of {digits} digits") from None
        kind = type(value).__name__
        raise ValueError(f"{rule}, got a {kind} of {digits} integer digits") from None


def _finite_real(value, rule: str, positive: bool = False) -> float:
    """float(value) for a finite (and, if asked, positive) real that is not a bool;
    anything else fails `rule`: ValueError `<rule>, got <value>`."""
    # int and float first: numbers.Real alone is a slow ABC check on every dyad record
    if isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool):
        x = _as_float(value, rule)
        if math.isfinite(x) and (x > 0 or not positive):
            return x
    raise ValueError(f"{rule}, got {_shown(value)}")


def _quotient(n: int, name: str, value: float) -> float:
    """n / value, the grid field derived from the caller's `name`, after checking both."""
    rule = f"{name} must be a positive real"
    quotient = _check_size(n) / _finite_real(value, rule, positive=True)
    if math.isinf(quotient):
        raise ValueError(
            f"{name} = {_shown(value)} is too small for n = {n}: n / {name} overflows"
        )
    return quotient


def _check_size(n: int) -> int:
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {_shown(n)}")
    _as_float(n, "n must be a positive integer")  # the grid check computes with float(n)
    return operator.index(n)


def _check_index(value: int, n: int, name: str) -> None:
    if not _is_integer(value) or not 1 <= value <= n:
        raise IndexError(f"{name} must be in [1..{n}], got {_shown(value)}")


def _finite_vector(values, n: int | None, what: str) -> np.ndarray:
    """values as float64, refused unless it has one axis, n entries (if n is given), all finite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or (n is not None and arr.shape[0] != n):
        expected = "one axis" if n is None else f"({n},)"
        raise DimensionMismatch(f"{what} has shape {arr.shape}, expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


def sign_at(n: int, i: int, j: int) -> int:
    """Sign (+1 or -1) of train j at subinterval i.

    Uses the quotient/remainder parity rule on i / l_j with l_j = n - j + 1:
    an even quotient means -1 on a zero remainder and +1 otherwise, an odd
    quotient the reverse. Equivalent to (-1) ** ((i - 1) // l_j).
    """
    _check_size(n)
    _check_index(i, n, "subinterval index i")
    _check_index(j, n, "train index j")
    q, r = divmod(i, n - j + 1)
    if q % 2 == 0:
        return -1 if r == 0 else 1
    return 1 if r == 0 else -1


def train_frequency(grid: GridSpec, i: int) -> float:
    """Frequency of train i in hertz.

    Train n fits one full wave into two subintervals, so its frequency is
    f_s / 2; train i is slower by its half-wave span (see _train_frequencies).
    """
    _check_index(i, grid.n, "train index i")
    return float(_train_frequencies(grid, i, i)[0])


def _train_frequencies(grid: GridSpec, first: int = 1, last: int | None = None) -> np.ndarray:
    """Frequencies of trains first..last (all by default): train i runs at
    f_s / (2 * (n - i + 1)), a single division, so train n is exactly f_s / 2."""
    stop = 0 if last is None else grid.n - last  # the span of train `last`, less one
    return grid.f_s / (2.0 * np.arange(grid.n - first + 1, stop, -1, dtype=np.float64))


@dataclass(frozen=True)
class SignPattern:
    """The validated size n of the n-by-n sign matrix.

    `solve` and `apply_sign_matrix` take a SignPattern rather than a bare n.
    Entry (i, j) of the matrix is `sign_at(n, i, j)`; no entry is stored.
    """

    n: int

    def __post_init__(self):
        _check_size(self.n)
