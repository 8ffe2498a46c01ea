"""Square-wave decomposition and transform for uniformly sampled time series.

An n-sample series is decomposed into n trains of square waves whose
midpoint samples sum, subinterval by subinterval, to the original values.
The coefficients come from an n-by-n signed linear system; pairing each
coefficient with its train frequency gives the series' dyad spectrum, from
which the series can be rebuilt.
"""

from .errors import DimensionMismatch, FileFormatError, SquareWaveError
from .linsolve import SolveReport, apply_sign_matrix, solve
from .random_series import DigitStream, GeneratedSeries, generate, next_value
from .transform import (
    Dyad,
    ReconstructionReport,
    Spectrum,
    TimeSeries,
    forward,
    inverse,
    reconstruction_report,
)
from .waves import (
    GridSpec,
    SignPattern,
    TrainDescriptor,
    half_wave_length,
    sample_train,
    sign_at,
    train_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "DigitStream",
    "DimensionMismatch",
    "Dyad",
    "FileFormatError",
    "GeneratedSeries",
    "GridSpec",
    "ReconstructionReport",
    "SignPattern",
    "SolveReport",
    "Spectrum",
    "SquareWaveError",
    "TimeSeries",
    "TrainDescriptor",
    "apply_sign_matrix",
    "forward",
    "generate",
    "half_wave_length",
    "inverse",
    "next_value",
    "reconstruction_report",
    "sample_train",
    "sign_at",
    "solve",
    "train_frequency",
]
