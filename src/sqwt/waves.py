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
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
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
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if not (math.isfinite(delta_t) and delta_t > 0):
            raise ValueError(f"delta_t must be a positive real, got {delta_t!r}")
        return cls(int(n), float(delta_t), n / delta_t)

    @classmethod
    def from_sampling_rate(cls, n: int, f_s: float) -> "GridSpec":
        """Grid for n samples at f_s samples/second; delta_t is derived."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if not (math.isfinite(f_s) and f_s > 0):
            raise ValueError(f"f_s must be a positive real, got {f_s!r}")
        return cls(int(n), n / f_s, float(f_s))


def _check_index(value: int, n: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)) or not 1 <= value <= n:
        raise IndexError(f"{name} must be in [1..{n}], got {value!r}")


def half_wave_length(n: int, j: int) -> int:
    """Half-wave span of train j in subintervals: n - j + 1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    _check_index(j, n, "train index j")
    return n - j + 1


def sign_at(n: int, i: int, j: int) -> int:
    """Sign (+1 or -1) of train j at subinterval i.

    Uses the quotient/remainder parity rule on i / l_j with l_j = n - j + 1:
    an even quotient means -1 on a zero remainder and +1 otherwise, an odd
    quotient the reverse. Equivalent to (-1) ** ((i - 1) // l_j).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
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


def sample_train(grid: GridSpec, i: int, coefficient: float, k: int) -> float:
    """Value of train i, scaled by its coefficient, at the midpoint of subinterval k."""
    _check_index(k, grid.n, "subinterval index k")
    return sign_at(grid.n, k, i) * coefficient


@dataclass(frozen=True)
class TrainDescriptor:
    """Geometry of one train: 1-based index, half-wave span, frequency in hertz."""

    index: int
    half_wave_length: int
    frequency: float

    @classmethod
    def from_grid(cls, grid: GridSpec, i: int) -> "TrainDescriptor":
        return cls(i, half_wave_length(grid.n, i), train_frequency(grid, i))


@dataclass(frozen=True)
class SignPattern:
    """The n-by-n arrangement of train signs, computed on demand.

    Entry (i, j) is the sign of train j at subinterval i. Nothing beyond n
    is stored, so patterns stay cheap at any size.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    def sign(self, i: int, j: int) -> int:
        return sign_at(self.n, i, j)

    def column(self, j: int) -> np.ndarray:
        """Signs of train j down all n subintervals, as an int8 vector of +-1."""
        _check_index(j, self.n, "train index j")
        l = self.n - j + 1
        idx = np.arange(self.n, dtype=np.int64)
        return (1 - 2 * ((idx // l) & 1)).astype(np.int8)

    def row(self, i: int) -> np.ndarray:
        """Signs of all n trains at subinterval i, as an int8 vector of +-1."""
        _check_index(i, self.n, "subinterval index i")
        lengths = np.arange(self.n, 0, -1, dtype=np.int64)
        return (1 - 2 * (((i - 1) // lengths) & 1)).astype(np.int8)
