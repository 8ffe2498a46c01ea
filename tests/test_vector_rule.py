"""One rule for every float vector that enters sqwt: one axis, length n where n
applies, every entry finite. Each entry point refuses the same inputs with the
same exception type and a message naming its argument."""

import numpy as np
import pytest

from sqwt import (
    DimensionMismatch,
    GridSpec,
    SignPattern,
    Spectrum,
    TimeSeries,
    apply_sign_matrix,
    solve,
)
from sqwt.fileio import write_series_values

N = 4
GRID = GridSpec.from_duration(N, 2.0)
KEPT = b"1.5\n-2.0\n"

# name -> (call taking the vector and a scratch path, argument named in errors, takes n)
ENTRY_POINTS = {
    "TimeSeries": (lambda v, path: TimeSeries(v, GRID), "values", True),
    "Spectrum": (lambda v, path: Spectrum(GRID, v), "coefficients", True),
    "solve": (lambda v, path: solve(SignPattern(N), v), "rhs", True),
    "apply_sign_matrix": (lambda v, path: apply_sign_matrix(SignPattern(N), v), "x", True),
    "write_series_values": (lambda v, path: write_series_values(path, v), "values", False),
}

REFUSED = {
    "nan": ([1.0, np.nan, 0.0, 2.0], ValueError, "{what} contains non-finite values"),
    "inf": ([1.0, 0.0, np.inf, 2.0], ValueError, "{what} contains non-finite values"),
    "-inf": ([-np.inf, 1.0, 0.0, 2.0], ValueError, "{what} contains non-finite values"),
    "2-D": (np.ones((2, 2)), DimensionMismatch, "{what} has shape (2, 2), expected {shape}"),
    "0-D": (np.float64(1.0), DimensionMismatch, "{what} has shape (), expected {shape}"),
    "wrong length": ([1.0, 2.0, 3.0], DimensionMismatch,
                     "{what} has shape (3,), expected {shape}"),
}


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry in sorted(ENTRY_POINTS) for case in sorted(REFUSED)
    if ENTRY_POINTS[entry][2] or case != "wrong length"  # no length applies to a series file
])
def test_every_entry_point_refuses_alike(tmp_path, entry, case):
    call, what, takes_n = ENTRY_POINTS[entry]
    values, error, message = REFUSED[case]
    path = tmp_path / "series.csv"
    path.write_bytes(KEPT)
    shape = f"({N},)" if takes_n else "one axis"
    with pytest.raises(error) as err:
        call(values, path)
    assert type(err.value) is error
    assert str(err.value) == message.format(what=what, shape=shape)
    assert path.read_bytes() == KEPT  # refused before the file is opened
