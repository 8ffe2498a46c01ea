"""Square-wave train geometry over a uniformly sampled interval.

A series of n samples spanning delta_t seconds is matched by n trains of
square waves. Train j holds a constant value over l_j = n - j + 1
consecutive subintervals (one half-wave), then flips sign, starting
positive, so train n alternates every subinterval and train 1 never flips.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

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
        _check_size(self.n)
        if not (math.isfinite(self.delta_t) and self.delta_t > 0):
            raise ValueError(f"delta_t must be a positive real, got {self.delta_t!r}")
        if not (math.isfinite(self.f_s) and self.f_s > 0):
            raise ValueError(f"f_s must be a positive real, got {self.f_s!r}")
        # plain Python numbers, as json and repr expect, whatever the caller passed
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "delta_t", float(self.delta_t))
        object.__setattr__(self, "f_s", float(self.f_s))
        if abs(self.f_s * self.delta_t - self.n) > _GRID_REL_TOL * self.n:
            raise ValueError(
                f"inconsistent grid: f_s * delta_t = {self.f_s * self.delta_t!r} "
                f"but n = {self.n}"
            )

    @classmethod
    def from_duration(cls, n: int, delta_t: float) -> "GridSpec":
        """Grid for n samples over delta_t seconds; f_s is derived."""
        _check_size(n)
        if not (math.isfinite(delta_t) and delta_t > 0):
            raise ValueError(f"delta_t must be a positive real, got {delta_t!r}")
        return cls(int(n), float(delta_t), n / delta_t)

    @classmethod
    def from_sampling_rate(cls, n: int, f_s: float) -> "GridSpec":
        """Grid for n samples at f_s samples/second; delta_t is derived."""
        _check_size(n)
        if not (math.isfinite(f_s) and f_s > 0):
            raise ValueError(f"f_s must be a positive real, got {f_s!r}")
        return cls(int(n), n / f_s, float(f_s))


def _check_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def _check_index(value: int, n: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)) or not 1 <= value <= n:
        raise IndexError(f"{name} must be in [1..{n}], got {value!r}")


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
    f_s / 2; train i is slower by its half-wave span. Computed as
    f_s / (2 * (n - i + 1)), a single division, which keeps the top
    frequency exactly equal to f_s / 2.
    """
    _check_index(i, grid.n, "train index i")
    return grid.f_s / (2.0 * (grid.n - i + 1))


@dataclass(frozen=True)
class SignPattern:
    """The validated size n of the n-by-n sign matrix.

    `solve` and `apply_sign_matrix` take a SignPattern rather than a bare n.
    Entry (i, j) of the matrix is `sign_at(n, i, j)`; no entry is stored.
    """

    n: int

    def __post_init__(self):
        _check_size(self.n)
