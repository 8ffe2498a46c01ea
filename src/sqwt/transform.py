"""Forward and inverse square-wave transforms of uniformly sampled series.

The forward transform solves the signed coefficient system; the inverse
rebuilds the series as the signed sum of all coefficients per subinterval.
A Spectrum stores the coefficients and derives its frequencies from the
grid by the law in `sqwt.waves`; dyad i pairs the i-th entry of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linsolve import SolveReport, apply_sign_matrix, solve
from .waves import GridSpec, SignPattern, _finite_vector, _train_frequencies


def _check_unit(unit) -> None:
    if not isinstance(unit, str):
        raise ValueError(f"unit must be a string, got {unit!r}")


def _check_fields(record, field: str) -> None:
    """Store a record's `field` as a read-only finite copy on its grid; require a str unit."""
    arr = _finite_vector(np.array(getattr(record, field), dtype=np.float64), record.grid.n, field)
    _check_unit(record.unit)
    arr.setflags(write=False)
    object.__setattr__(record, field, arr)


@dataclass(frozen=True)
class TimeSeries:
    """Finite float64 samples on a grid; unit is an opaque string label ("mV", "")."""

    values: np.ndarray
    grid: GridSpec
    unit: str = ""

    def __post_init__(self):
        _check_fields(self, "values")

    @property
    def n(self) -> int:
        return self.grid.n


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
        _check_fields(self, "coefficients")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def frequencies(self) -> np.ndarray:
        return _train_frequencies(self.grid)


@dataclass(frozen=True)
class ReconstructionReport:
    """Sample-wise comparison of a series against its reconstruction."""

    max_abs_error: float
    index_of_max: int
    rms_error: float


def forward(series: TimeSeries) -> tuple[Spectrum, SolveReport]:
    """Decompose a series into its dyad spectrum by solving the sign system.

    The SolveReport gives the largest correction the compensated solve
    added to its plain sums; the error of the coefficients is the round
    trip, which reconstruction_report measures on inverse(spectrum).
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
