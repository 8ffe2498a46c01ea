"""Square-wave decomposition and transform for uniformly sampled time series.

An n-sample series is decomposed into n trains of square waves whose
midpoint samples sum, subinterval by subinterval, to the original values.
The coefficients come from an n-by-n signed linear system; pairing each
coefficient with its train frequency gives the series' dyad spectrum, from
which the series can be rebuilt.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it; a name is imported on
# first access, so `import sqwt.cli` (and `python -m sqwt`) leaves numpy
# unloaded until a command needs it
_EXPORTS = {
    "DimensionMismatch": "errors",
    "FileFormatError": "errors",
    "SquareWaveError": "errors",
    "SolveReport": "linsolve",
    "apply_sign_matrix": "linsolve",
    "solve": "linsolve",
    "DigitStream": "random_series",
    "GeneratedSeries": "random_series",
    "generate": "random_series",
    "next_value": "random_series",
    "Dyad": "transform",
    "ReconstructionReport": "transform",
    "Spectrum": "transform",
    "TimeSeries": "transform",
    "forward": "transform",
    "inverse": "transform",
    "reconstruction_report": "transform",
    "GridSpec": "waves",
    "SignPattern": "waves",
    "TrainDescriptor": "waves",
    "half_wave_length": "waves",
    "sample_train": "waves",
    "sign_at": "waves",
    "train_frequency": "waves",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
