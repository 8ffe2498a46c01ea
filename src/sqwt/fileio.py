"""Series CSV and spectrum JSON readers and writers.

A series file is one decimal value per line with an optional `value`
header. A spectrum file is a JSON document holding the grid metadata and
per-dyad records; numbers are stored at full precision (shortest
round-trip decimal form) next to a six-decimal display string.

`write_spectrum` and the block reader, `read_canonical`, both take the
spectrum layout from _DYAD_RECORD, _HEAD_END, _RECORD_SEP and _TAIL; a
file that departs from it is read as one JSON document.
"""

from __future__ import annotations

import json
import math
import os
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
# json.dumps(doc, indent=2) + "\n" of a spectrum: a header ending in
# _HEAD_END, dyad records joined by _RECORD_SEP, then _TAIL
_DYAD_RECORD = (
    '    {\n      "i": %d,\n      "f_hz": %r,\n      "c": %r,\n'
    f'      "display": "{_DISPLAY}"\n    }}'
)
_HEAD_END = '\n  "dyads": [\n'
_RECORD_SEP = ",\n"
_TAIL = "\n  ]\n}\n"
_RECORD_KEYS = ("i", "f_hz", "c")
# ASCII characters that float() accepts inside a number (digit-group
# underscores) or that str.splitlines() splits a line at; no decimal line
# of a series file holds one
_NOT_IN_SERIES = ("_", "\v", "\f", "\x1c", "\x1d", "\x1e")


def _write_text(path, pieces) -> None:
    """Write an iterable of strings to a file, as each one comes; an OSError names the file."""
    try:
        with Path(path).open("w", encoding="utf-8") as out:
            out.writelines(pieces)
    except OSError as exc:
        raise FileFormatError(str(path), f"cannot write file: {exc.strerror}") from exc


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


def write_series_values(path, values) -> None:
    """Write one value per line in shortest round-trip decimal form."""
    _write_text(path, repr_rows([values]) if len(values) else ["\n"])


def format_dyad_display(frequency: float, coefficient: float) -> str:
    """Six-decimal display form of one dyad, e.g. '(0.250000; 170.500000)'."""
    return _DISPLAY % (frequency, coefficient)


def _spectrum_text(spectrum: Spectrum):
    """Yield the header, the dyad records in blocks of _BLOCK, then the tail."""
    grid = spectrum.grid
    yield "{" + "".join(
        f'\n  "{key}": {json.dumps(value)},'
        for key, value in (
            ("n", grid.n), ("delta_t_s", grid.delta_t), ("f_s_hz", grid.f_s),
            ("unit", spectrum.unit),
        )
    ) + _HEAD_END
    freqs = spectrum.frequencies
    coeffs = spectrum.coefficients
    columns = [np.arange(1, grid.n + 1), freqs, coeffs, freqs, coeffs]
    for start in range(0, grid.n, _BLOCK):
        if start:
            yield _RECORD_SEP
        block = [column[start : start + _BLOCK].tolist() for column in columns]
        yield _RECORD_SEP.join([_DYAD_RECORD % row for row in zip(*block)])
    yield _TAIL


def write_spectrum(path, spectrum: Spectrum) -> None:
    """Serialize a spectrum as JSON with full-precision numbers.

    The bytes are those of `json.dumps(doc, indent=2) + "\\n"`; the header
    scalars go through json.dumps and the dyad records are formatted
    directly, in blocks through `.tolist()`, so floats print in shortest
    round-trip form and memory stays bounded at any n.
    """
    _write_text(path, _spectrum_text(spectrum))


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


_CHUNK = 1 << 18
# the fixed text before each record's i, f_hz, c and display tokens and
# after its display token; the reader ends the last record with _RECORD_SEP too
_SEGMENTS = tuple(segment.encode() for segment in (_DYAD_RECORD + _RECORD_SEP)
                  .replace("%d", "%r").replace(_DISPLAY, "%r").split("%r"))
# where the f_hz, c and display tokens start, after the newline that ends
# the line before theirs: each segment before them starts with ",\n"
_TOKEN_OFFSETS = np.array([[len(segment) - 1] for segment in _SEGMENTS[1:4]])
# the reader gathers _WINDOW bytes at the start of each segment and token;
# a start lies at most 19 bytes (the largest of _TOKEN_OFFSETS) past a
# newline, so padding each block with _PAD keeps every window inside it
_WINDOW = 32
_PAD = bytes(_WINDOW + 32)
_LANES = np.arange(_WINDOW, dtype=np.uint8)
# each segment zero-padded to 3 little-endian words, and a mask of its
# bytes, shaped to broadcast over (segment, word, record)
_SEGMENT_TEXT = np.frombuffer(
    b"".join(segment.ljust(24, b"\0") for segment in _SEGMENTS), dtype="<u8"
).reshape(len(_SEGMENTS), 3, 1)
_SEGMENT_MASK = np.frombuffer(
    b"".join(bytes(len(segment) * [0xFF]).ljust(24, b"\0") for segment in _SEGMENTS),
    dtype="<u8",
).reshape(len(_SEGMENTS), 3, 1)
_NOT_DISPLAY = np.ones(256, dtype=bool)
_NOT_DISPLAY[list(_DISPLAY_CHARS)] = False
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _block(buf: memoryview, done: int, n: int, f_s: float):
    """(coefficients, bytes used) for the complete records at the start of a canonical block.

    `buf` starts at a record, ends with _PAD, and comes after `done`
    records. Returns None if it holds no complete record, departs from the
    canonical layout, or holds a record that `_record_fault` would name.
    A record is 6 lines; from the newlines, the reader gathers _WINDOW
    bytes at each fixed segment and token of every record and checks them
    as arrays: the segments against _SEGMENTS, each `i` digit by digit
    against its index, each display string against _DISPLAY_CHARS. The
    f_hz and c tokens of the block are parsed by one json.loads.
    """
    data = np.frombuffer(buf, dtype=np.uint8)
    newlines = np.flatnonzero(data == 10)
    count = len(newlines) // 6
    if count == 0 or done + count > n:
        return None
    line_ends = newlines[: 6 * count].reshape(count, 6).T
    # per record: where its five segments and its f_hz, c, display tokens start
    starts = np.empty((8, count), dtype=np.int64)
    starts[0, 0] = 0
    starts[0, 1:] = line_ends[5, :-1] + 1
    starts[1:5] = line_ends[1:5] - 1
    starts[5:] = line_ends[1:4] + _TOKEN_OFFSETS
    # the _WINDOW bytes at each byte offset: an unaligned view, no copy
    at = np.ndarray((len(buf) - _WINDOW + 1,), dtype=f"V{_WINDOW}", buffer=buf, strides=(1,))
    windows = at[starts].view(np.uint8).reshape(8, count, _WINDOW)
    # records innermost, so that each operation below runs over long rows
    words = np.ascontiguousarray(windows[:5].view("<u8")[:, :, :3].transpose(0, 2, 1))
    words ^= _SEGMENT_TEXT
    words &= _SEGMENT_MASK
    if np.any(words):
        return None

    # each i has as many characters as its index has digits, and they match
    index = np.arange(done + 1, done + count + 1)
    digits = np.searchsorted(_POW10, index, side="right")
    width = int(digits[-1])
    i_at = len(_SEGMENTS[0])
    if width > _WINDOW - i_at or not np.array_equal(starts[1] - starts[0] - i_at, digits):
        return None
    place = np.arange(width)[:, None]
    expected = (index // _POW10[np.maximum(digits - 1 - place, 0)] % 10).astype(np.uint8)
    expected += ord("0")
    if not np.all((windows[0, :, i_at : i_at + width].T == expected) | (place >= digits)):
        return None

    # f_hz and c with their commas, and display without its closing quote
    lengths = line_ends[2:5] - starts[5:]
    lengths[2] -= 1
    if not (np.all(lengths[:2] > 1) and np.all(lengths[:2] <= _WINDOW)
            and np.all(lengths[2] >= 0)):
        return None
    lengths[1, -1] -= 1  # no comma after the last c in the array below
    # each token padded with spaces, which display strings may hold
    tokens = windows[5:]
    widths = np.minimum(lengths, _WINDOW).astype(np.uint8)[:, :, None]
    np.putmask(tokens, _LANES >= widths, ord(" "))
    if np.any(np.take(_NOT_DISPLAY, tokens[2])):
        return None
    for rec in np.flatnonzero(lengths[2] > _WINDOW).tolist():
        start = int(starts[7, rec])
        if buf[start : start + int(lengths[2, rec])].tobytes().translate(None, _DISPLAY_CHARS):
            return None
    try:  # every f_hz, then every c
        values = json.loads("[" + tokens[:2].tobytes().decode("ascii") + "]")
    except (ValueError, RecursionError):
        return None
    column = _float_column(values) if len(values) == 2 * count else None
    if column is None:
        return None
    spans = np.arange(n - done, n - done - count, -1, dtype=np.float64)
    if not _frequencies_match(column[:count], f_s / (2.0 * spans)):
        return None
    return column[count:], int(line_ends[5, -1]) + 1


def read_canonical(file, p: str) -> Spectrum | None:
    """The spectrum in a binary file of the canonical layout; None if it departs from it.

    Decodes the header with json.loads, then reads the records in chunks
    of _CHUNK bytes, carrying a partial last record into the next chunk.
    """
    size = os.fstat(file.fileno()).st_size
    head = file.read(_CHUNK)
    pos = head.find(_HEAD_END.encode()) + len(_HEAD_END)
    if pos < len(_HEAD_END):
        return None
    try:
        # the dyads array then closes the top-level object
        doc = json.loads(head[:pos].decode("utf-8") + "]}")
        grid = _grid(doc, p)
    except (ValueError, RecursionError, FileFormatError):
        return None
    end = size - len(_TAIL)
    if pos >= end or grid.n * len(_SEGMENTS[0]) > size:  # too few bytes for n records
        return None
    file.seek(end)
    if file.read() != _TAIL.encode():
        return None
    file.seek(pos)
    # one buffer for every block: a carried partial record, a chunk, the
    # last record's _RECORD_SEP and _PAD; a record longer than _CHUNK falls back
    buf = bytearray(min(2 * _CHUNK, size) + len(_RECORD_SEP) + len(_PAD))
    view = memoryview(buf)
    coefficients = np.empty(grid.n)
    carry = done = 0
    while pos < end:
        got = file.readinto(view[carry : carry + min(_CHUNK, end - pos)])
        if not got:
            return None
        pos += got
        stop = carry + got
        if pos >= end:
            buf[stop : stop + len(_RECORD_SEP)] = _RECORD_SEP.encode()
            stop += len(_RECORD_SEP)
        buf[stop : stop + len(_PAD)] = _PAD
        block = _block(view[: stop + len(_PAD)], done, grid.n, grid.f_s)
        if block is None:
            return None
        column, used = block
        coefficients[done : done + len(column)] = column
        done += len(column)
        carry = stop - used
        if carry > _CHUNK:
            return None
        buf[:carry] = buf[used:stop]
    if carry or done != grid.n:
        return None
    return Spectrum(grid, coefficients, doc["unit"])


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
    _write_text(path, repr_rows([spectrum.frequencies, spectrum.coefficients]))


def write_report(path, report: ReconstructionReport) -> None:
    """Serialize a reconstruction report as JSON."""
    doc = {
        "max_abs_error": report.max_abs_error,
        "index_of_max": report.index_of_max,
        "rms_error": report.rms_error,
    }
    _write_text(path, [json.dumps(doc, indent=2, allow_nan=False) + "\n"])
