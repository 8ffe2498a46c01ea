"""Forward and inverse square-wave transforms of uniformly sampled series.

The forward transform solves the signed coefficient system, pairing each
train's coefficient with its frequency; the inverse rebuilds the series as
the signed sum of all coefficients per subinterval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linsolve import SolveReport, apply_sign_matrix, solve
from .waves import GridSpec, SignPattern


def _as_finite_vector(values, n: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.shape != (n,):
        raise DimensionMismatch(f"{what} has shape {arr.shape}, grid expects ({n},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Finite float64 samples on a grid; unit is an opaque label ("mV", "")."""

    values: np.ndarray
    grid: GridSpec
    unit: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_finite_vector(self.values, self.grid.n, "series")
        )

    @property
    def n(self) -> int:
        return self.grid.n


@dataclass(frozen=True)
class Dyad:
    """One (frequency, coefficient) pair of a spectrum, with its 1-based index."""

    index: int
    frequency: float
    coefficient: float


@dataclass(frozen=True)
class Spectrum:
    """Full transform output: one coefficient per train on a grid.

    Coefficients are kept at full precision; frequencies are derived from
    the grid on demand (train i runs at f_s / (2 * (n - i + 1))).
    """

    grid: GridSpec
    coefficients: np.ndarray
    unit: str = ""

    def __post_init__(self):
        object.__setattr__(
            self,
            "coefficients",
            _as_finite_vector(self.coefficients, self.grid.n, "coefficients"),
        )

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def frequencies(self) -> np.ndarray:
        # same arithmetic as waves.train_frequency, vectorized
        spans = np.arange(self.grid.n, 0, -1, dtype=np.float64)
        return self.grid.f_s / (2.0 * spans)

    @property
    def dyads(self) -> list[Dyad]:
        freqs = self.frequencies
        return [
            Dyad(i + 1, float(freqs[i]), float(self.coefficients[i]))
            for i in range(self.grid.n)
        ]


@dataclass(frozen=True)
class ReconstructionReport:
    """Sample-wise comparison of a series against its reconstruction."""

    max_abs_error: float
    index_of_max: int
    rms_error: float


def forward(series: TimeSeries) -> tuple[Spectrum, SolveReport]:
    """Decompose a series into its dyad spectrum by solving the sign system.

    The returned coefficients satisfy the per-subinterval signed sums up to
    the residual recorded in the SolveReport.
    """
    pattern = SignPattern(series.grid.n)
    coefficients, report = solve(pattern, series.values)
    return Spectrum(series.grid, coefficients, series.unit), report


def inverse(spectrum: Spectrum) -> TimeSeries:
    """Rebuild the series from a spectrum.

    Each sample is the signed sum of all coefficients, computed by
    apply_sign_matrix in a fixed order; the output is bit-reproducible.
    """
    pattern = SignPattern(spectrum.grid.n)
    values = apply_sign_matrix(pattern, spectrum.coefficients)
    return TimeSeries(values, spectrum.grid, spectrum.unit)


def reconstruction_report(
    original: TimeSeries, reconstructed: TimeSeries
) -> ReconstructionReport:
    """Compare two series on the same grid sample by sample.

    Reports the largest absolute deviation, the smallest 1-based index where
    it occurs, and the root-mean-square deviation. The rms is finite whenever
    the deviations are, even where their squares overflow.
    """
    if original.grid != reconstructed.grid:
        raise DimensionMismatch(
            f"grids differ: {original.grid} vs {reconstructed.grid}"
        )
    diff = np.abs(original.values - reconstructed.values)
    k = int(np.argmax(diff))  # argmax returns the first maximizer
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(np.square(diff))))
    if math.isinf(rms):  # the squares overflowed: scale by the largest deviation
        rms = float(diff[k] * np.sqrt(np.mean(np.square(diff / diff[k]))))
    return ReconstructionReport(
        max_abs_error=float(diff[k]),
        index_of_max=k + 1,
        rms_error=rms,
    )
