"""Series CSV and spectrum JSON readers and writers.

A series file is one decimal value per line with an optional `value`
header. A spectrum file is a JSON document holding the grid metadata and
per-dyad records; numbers are stored at full precision (shortest
round-trip decimal form) next to a six-decimal display string.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ._floattext import repr_rows
from .errors import FileFormatError
from .transform import ReconstructionReport, Spectrum
from .waves import GridSpec

_FREQ_SANITY_REL_TOL = 1e-6
# records written per block by write_spectrum; bounds its scratch memory at
# any n
_BLOCK = 1 << 14
# six-decimal display form of a dyad; holds only _DISPLAY_CHARS, so it
# needs no JSON escaping
_DISPLAY = "(%.6f; %.6f)"
_DISPLAY_CHARS = b"-0123456789.; ()"
# one dyad record laid out as json.dumps(doc, indent=2) lays it out
_DYAD_RECORD = (
    '    {\n      "i": %d,\n      "f_hz": %r,\n      "c": %r,\n'
    f'      "display": "{_DISPLAY}"\n    }}'
)
_RECORD_KEYS = ("i", "f_hz", "c")
# ASCII characters that float() accepts inside a number (digit-group
# underscores) or that str.splitlines() splits a line at; no decimal line
# of a series file holds one
_NOT_IN_SERIES = ("_", "\v", "\f", "\x1c", "\x1d", "\x1e")


def _write_rows(path, columns, template: str, sep: str, head: str, tail: str) -> None:
    """Write head, `template % row` for each row of the columns joined by sep, then tail.

    Rows go through `.tolist()` in blocks of _BLOCK, so floats print in
    shortest round-trip form and memory stays bounded however long the
    columns are.
    """
    n = len(columns[0])
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(head)
        for start in range(0, n, _BLOCK):
            if start:
                out.write(sep)
            block = [column[start : start + _BLOCK].tolist() for column in columns]
            out.write(sep.join([template % row for row in zip(*block)]))
        out.write(tail)


def _number_fault(v, what: str, positive: bool = False) -> str | None:
    """Why v is not a finite (and, if asked, positive) JSON number; None when it is one."""
    kind = "a positive finite number" if positive else "a finite number"
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:
            return f"{what} must be {kind}, got an integer of {len(str(abs(v)))} digits"
        if math.isfinite(x) and (x > 0 or not positive):
            return None
    return f"{what} must be {kind}, got {v!r}"


def read_series_values(path) -> np.ndarray:
    """Parse a series file into a float64 vector.

    Accepts an optional leading `value` header. Lines end in "\n", "\r\n"
    or "\r". Any token that is not a finite decimal number in ASCII
    (no digit-group underscores) fails with the 1-based line number; an
    empty file fails naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileFormatError(str(path), f"cannot read file: {exc.strerror}") from exc
    if not text.isascii() or any(c in text for c in _NOT_IN_SERIES):
        _raise_series_character_fault(str(path), text)
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        token = raw.strip()
        if lineno == 1 and token.lower() == "value":
            continue
        if not token:
            raise FileFormatError(str(path), "blank line in series file", lineno)
        try:
            value = float(token)
        except ValueError:
            raise FileFormatError(
                str(path), f"not a decimal number: {token!r}", lineno
            ) from None
        if not math.isfinite(value):
            raise FileFormatError(
                str(path), f"non-finite value not allowed: {token!r}", lineno
            )
        values.append(value)
    if not values:
        raise FileFormatError(str(path), "file contains no values")
    return np.asarray(values, dtype=np.float64)


def _raise_series_character_fault(p: str, text: str) -> None:
    """Name the first line that holds a non-ASCII character or one of _NOT_IN_SERIES."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii() or any(c in raw for c in _NOT_IN_SERIES):
            token = raw.strip(" \t")
            raise FileFormatError(p, f"not a decimal number: {token!r}", lineno)


def _write_repr_rows(path, columns) -> None:
    """Write one line per row of the float64 columns: each value's `repr`, joined by ','."""
    with Path(path).open("w", encoding="utf-8") as out:
        out.writelines(repr_rows(columns))
        if not len(columns[0]):
            out.write("\n")


def write_series_values(path, values) -> None:
    """Write one value per line in shortest round-trip decimal form."""
    _write_repr_rows(path, [values])


def format_dyad_display(frequency: float, coefficient: float) -> str:
    """Six-decimal display form of one dyad, e.g. '(0.250000; 170.500000)'."""
    return _DISPLAY % (frequency, coefficient)


def write_spectrum(path, spectrum: Spectrum) -> None:
    """Serialize a spectrum as JSON with full-precision numbers.

    The bytes are those of `json.dumps(doc, indent=2) + "\\n"`; the header
    scalars go through json.dumps and the dyad records are formatted
    directly.
    """
    grid = spectrum.grid
    head = "{\n" + "".join(
        f'  "{key}": {json.dumps(value)},\n'
        for key, value in (
            ("n", grid.n), ("delta_t_s", grid.delta_t), ("f_s_hz", grid.f_s),
            ("unit", spectrum.unit),
        )
    ) + '  "dyads": [\n'
    freqs = spectrum.frequencies
    coeffs = spectrum.coefficients
    columns = [np.arange(1, grid.n + 1), freqs, coeffs, freqs, coeffs]
    _write_rows(path, columns, _DYAD_RECORD, ",\n", head, "\n  ]\n}\n")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise FileFormatError(path, message)


def _grid(doc, p: str) -> GridSpec:
    """The grid of a decoded spectrum document, after checking its header fields."""
    _require(isinstance(doc, dict), p, "top level must be a JSON object")
    for key in ("n", "delta_t_s", "f_s_hz", "unit", "dyads"):
        _require(key in doc, p, f"missing required field {key!r}")
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             p, f"n must be a positive integer, got {n!r}")
    for key in ("delta_t_s", "f_s_hz"):
        fault = _number_fault(doc[key], key, positive=True)
        _require(fault is None, p, fault)
    _require(isinstance(doc["unit"], str), p, "unit must be a string")
    try:
        return GridSpec(n, float(doc["delta_t_s"]), float(doc["f_s_hz"]))
    except ValueError as exc:
        raise FileFormatError(p, str(exc)) from None
    except OverflowError:  # the consistency check cannot turn n into a float
        raise FileFormatError(
            p, f"n must be a positive integer, got an integer of {len(str(n))} digits"
        ) from None


def _record_fault(pos: int, rec, n: int, f_expected: float) -> str | None:
    """The message for the first check that record `pos` (0-based) fails; None if it passes."""
    if not isinstance(rec, dict):
        return f"dyad record {pos + 1} must be an object"
    for key in _RECORD_KEYS:
        if key not in rec:
            return f"dyad record {pos + 1} missing field {key!r}"
    i = rec["i"]
    if not (isinstance(i, int) and not isinstance(i, bool) and i == pos + 1):
        return f"dyad indices must ascend 1..{n}; record {pos + 1} has i={i!r}"
    for key in ("f_hz", "c"):
        fault = _number_fault(rec[key], f"dyad {i}: {key}")
        if fault is not None:
            return fault
    f = float(rec["f_hz"])
    if not abs(f - f_expected) <= _FREQ_SANITY_REL_TOL * f_expected:
        return (f"dyad {i}: frequency {f!r} does not match the grid "
                f"(expected {f_expected!r})")
    return None


def _float_column(values: list) -> np.ndarray | None:
    """A list of JSON ints and floats as a finite float64 array; None if any is not one."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        column = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return column if np.all(np.isfinite(column)) else None


def _frequencies_match(freqs: np.ndarray, expected: np.ndarray) -> bool:
    return bool(np.all(np.abs(freqs - expected) <= _FREQ_SANITY_REL_TOL * expected))


def _read_document(path: Path) -> Spectrum:
    """Parse a spectrum file with one json.loads and check it, naming the first fault."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileFormatError(str(path), f"cannot read file: {exc.strerror}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over 4300 digits
        raise FileFormatError(str(path), f"not valid JSON: {exc}") from None
    p = str(path)
    grid = _grid(doc, p)
    n = grid.n
    records = doc["dyads"]
    _require(isinstance(records, list), p, "dyads must be an array")
    _require(len(records) == n, p, f"expected {n} dyad records, found {len(records)}")
    spans = np.arange(n, 0, -1, dtype=np.float64)
    expected_freqs = (grid.f_s / (2.0 * spans)).tolist()
    for pos, rec in enumerate(records):
        fault = _record_fault(pos, rec, n, expected_freqs[pos])
        _require(fault is None, p, fault)
    return Spectrum(grid, [rec["c"] for rec in records], doc["unit"])


def read_spectrum(path) -> Spectrum:
    """Parse and validate a spectrum JSON file.

    Checks the record count, ascending 1..n indices, finite numbers, and
    that stored frequencies agree with the grid's frequency law; display
    strings are presentation-only and ignored. A file in the layout that
    `write_spectrum` writes is read in blocks of bounded size; any other
    valid JSON goes through one json.loads of the whole document, with the
    same result. A fault in either case is reported as the document reader
    reports it.
    """
    from ._spectrumblocks import read_canonical

    path = Path(path)
    spectrum = None
    if path.is_file():  # a pipe can be read only once: as a document
        try:
            with path.open("rb") as file:
                spectrum = read_canonical(file, str(path))
        except OSError:
            pass  # _read_document reports it
    return spectrum if spectrum is not None else _read_document(path)


def write_plotdata(path, spectrum: Spectrum) -> None:
    """Write a two-column CSV of (frequency, coefficient), one dyad per line."""
    _write_repr_rows(path, [spectrum.frequencies, spectrum.coefficients])


def write_report(path, report: ReconstructionReport) -> None:
    """Serialize a reconstruction report as JSON."""
    doc = {
        "max_abs_error": report.max_abs_error,
        "index_of_max": report.index_of_max,
        "rms_error": report.rms_error,
    }
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")
