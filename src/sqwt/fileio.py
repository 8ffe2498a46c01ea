"""Series CSV and spectrum JSON readers and writers.

A series file is one decimal value per line with an optional `value`
header. A spectrum file is a JSON document holding the grid metadata and
per-dyad records; numbers are stored at full precision (shortest
round-trip decimal form) next to a six-decimal display string. Every file
is written as bytes, ASCII with "\\n" line ends on every platform, each float
as `_floattext.repr_rows` gives it in blocks of at most 8,192 values. A
series is parsed from its bytes, one line at a time, each value going
straight into the float64 array: the reader holds the file's bytes and the
array, and no Python float per value. float() of bytes refuses every byte
outside the series grammar (non-ASCII ones and \\x1c-\\x1f too) but the three
of _NOT_IN_SERIES, `_`, `\\v` and `\\f`, which the reader screens for.

`write_spectrum` and the canonical reader, `_read_canonical`, both take
the spectrum layout from _DYAD_RECORD, _HEAD_END, _RECORD_SEP and _TAIL;
the reader matches records with one pattern built from the record template.
How a spectrum is read, from a file or a pipe, is told in
`_read_canonical`'s docstring. Both readers name a faulty record by
`_record_fault`, leave the header's `n` rule to GridSpec, take the rule for
a valid real number (the header's delta_t_s and f_s_hz, each record's f_hz
and c) from `sqwt.waves`, and check each stored frequency against its
frequency law.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from ._floattext import repr_rows
from .errors import FileFormatError
from .transform import ReconstructionReport, Spectrum, _check_unit
from .waves import GridSpec, _finite_real, _finite_vector, _is_integer, _train_frequencies

_FREQ_SANITY_REL_TOL = 1e-6
# six-decimal display form of a dyad; holds only _DISPLAY_CHARS, so it
# needs no JSON escaping
_DISPLAY = b"(%.6f; %.6f)"
_DISPLAY_CHARS = b"-0123456789.; ()"
# json.dumps(doc, indent=2) + "\n" of a spectrum: a header ending in
# _HEAD_END, dyad records joined by _RECORD_SEP, then _TAIL
_DYAD_RECORD = (
    b'    {\n      "i": %d,\n      "f_hz": %s,\n      "c": %s,\n'
    b'      "display": "' + _DISPLAY + b'"\n    }'
)
_HEAD_END = b'\n  "dyads": [\n'
_RECORD_SEP = b",\n"
_TAIL = b"\n  ]\n}\n"
# the bytes other than decimal text, spaces, tabs and line ends that float()
# of bytes accepts: digit-group underscores inside a number, \v and \f
# around it; no decimal line of a series file holds one
_NOT_IN_SERIES = b"_\v\f"


@contextlib.contextmanager
def _faults_named(path, what: str):
    """Raise an OSError in the block as FileFormatError `<path>: <what>: <strerror>`."""
    try:
        yield
    except OSError as exc:
        raise FileFormatError(path, f"{what}: {exc.strerror}") from exc


def _write_text(path, pieces) -> None:
    """Write an iterable of bytes to a file, as each one comes; an OSError names the file."""
    with _faults_named(path, "cannot write file"), Path(path).open("wb") as out:
        out.writelines(pieces)


def _decoded(data: bytes, name) -> str:
    """The text of an input file's bytes, less a leading byte-order mark; FileFormatError names
    a file that is not UTF-8, giving the bad byte's offset from the file's start."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        fault = f"not UTF-8 text: {exc.reason} at byte offset {exc.start}"
        raise FileFormatError(name, fault) from None


def read_series_values(path) -> np.ndarray:
    """Parse a series file into a float64 vector.

    Accepts an optional leading `value` header. Lines end in "\\n", "\\r\\n"
    or "\\r"; only spaces and tabs may surround a value. The first line whose
    token is not a finite ASCII decimal number (no digit-group underscores)
    fails with its 1-based number; an empty file fails naming the file.
    Only non-ASCII bytes are decoded whole, to check them as UTF-8. After a
    byte-order mark, float() parses each line's bytes and refuses by itself
    every byte outside the grammar but `_`, `\\v` and `\\f` (_NOT_IN_SERIES):
    where the file holds one of these, each line's bytes are screened for
    them first. A line is decoded only to name it in a fault. np.fromiter
    drains the values as they are parsed, so the peak is the file's bytes
    and the array (about 1.9x the file's size at n = 10^6).
    """
    with _faults_named(path, "cannot read file"), Path(path).open("rb") as file:
        data = file.read()
    if not data.isascii():
        _decoded(data, path)  # refuses bytes that are not UTF-8
    data = data.removeprefix(codecs.BOM_UTF8).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    clean = not any(c in data for c in _NOT_IN_SERIES)

    def parsed():
        for lineno, raw in enumerate(io.BytesIO(data), start=1):
            try:
                if not clean and any(c in raw for c in _NOT_IN_SERIES):
                    raise ValueError(raw)  # float() accepts these bytes
                value = float(raw)  # as float(token): the only blanks are spaces, tabs and "\n"
            except ValueError:
                token = raw.decode("utf-8").rstrip("\n").strip(" \t")
                if lineno == 1 and token.lower() == "value":
                    continue
                fault = (f"not a decimal number: {token!r}" if token
                         else "blank line in series file")
                raise FileFormatError(path, fault, lineno) from None
            if not math.isfinite(value):
                token = raw.decode("utf-8").rstrip("\n").strip(" \t")
                raise FileFormatError(path, f"non-finite value not allowed: {token!r}", lineno)
            yield value

    values = np.fromiter(parsed(), dtype=np.float64)
    _require(values.size > 0, path, "file contains no values")
    return values


def write_series_values(path, values) -> None:
    """Write one value per line in shortest round-trip decimal form. Before opening the file,
    refuses what read_series_values would refuse, except empty input (an empty file)."""
    _write_text(path, repr_rows([_finite_vector(values, None, "values")]))


def format_dyad_display(frequency: float, coefficient: float) -> str:
    """Six-decimal display form of one dyad, e.g. '(0.250000; 170.500000)'."""
    return (_DISPLAY % (frequency, coefficient)).decode("ascii")


def _spectrum_text(spectrum: Spectrum):
    """Yield the header, the dyad records block by block as repr_rows cuts them, then the tail."""
    grid = spectrum.grid
    head = {"n": grid.n, "delta_t_s": grid.delta_t, "f_s_hz": grid.f_s, "unit": spectrum.unit}
    # the header fields as json.dumps(doc, indent=2) writes them, then the dyads key
    yield json.dumps(head, indent=2).removesuffix("\n}").encode() + b"," + _HEAD_END
    freqs = spectrum.frequencies
    coeffs = spectrum.coefficients
    lead, done = b"", 0
    for rows in repr_rows([freqs, coeffs]):
        texts = rows.replace(b"\n", b",").split(b",")  # f_hz, c, f_hz, c, ..., b""
        end = done + len(texts) // 2
        records = zip(range(done + 1, end + 1), texts[0::2], texts[1::2],
                      freqs[done:end].tolist(), coeffs[done:end].tolist())
        yield lead + _RECORD_SEP.join([_DYAD_RECORD % record for record in records])
        lead, done = _RECORD_SEP, end
    yield _TAIL


def write_spectrum(path, spectrum: Spectrum) -> None:
    """Serialize a spectrum as JSON with full-precision numbers.

    The bytes are those of `json.dumps(doc, indent=2) + "\\n"`; the header
    scalars go through json.dumps and the dyad records are formatted
    directly, block by block: each f_hz and c is the text `repr_rows` gives
    the row, as in `write_plotdata`, and only the index and the six-decimal
    display go through `%`, so memory stays bounded at any n.
    """
    _write_text(path, _spectrum_text(spectrum))


def _require(condition: bool, path, message: str) -> None:
    if not condition:
        raise FileFormatError(path, message)


def _grid(doc, p: str) -> GridSpec:
    """The grid of a decoded spectrum document, after checking its header fields."""
    _require(isinstance(doc, dict), p, "top level must be a JSON object")
    for key in ("n", "delta_t_s", "f_s_hz", "unit", "dyads"):
        _require(key in doc, p, f"missing required field {key!r}")
    try:
        delta_t, f_s = (_finite_real(doc[key], f"{key} must be a positive finite number",
                                     positive=True) for key in ("delta_t_s", "f_s_hz"))
        _check_unit(doc["unit"])
        return GridSpec(doc["n"], delta_t, f_s)
    except ValueError as exc:  # the number and unit rules, then GridSpec's n rule and consistency
        raise FileFormatError(p, str(exc)) from None


def _record_fault(pos: int, rec, n: int, f_expected: float) -> str | None:
    """The message for the first check that record `pos` (0-based) fails; None if it passes."""
    if not isinstance(rec, dict):
        return f"dyad record {pos + 1} must be an object"
    for key in ("i", "f_hz", "c"):
        if key not in rec:
            return f"dyad record {pos + 1} missing field {key!r}"
    i = rec["i"]
    if not (_is_integer(i) and i == pos + 1):
        return f"dyad indices must ascend 1..{n}; record {pos + 1} has i={i!r}"
    try:
        f = _finite_real(rec["f_hz"], f"dyad {i}: f_hz must be a finite number")
        _finite_real(rec["c"], f"dyad {i}: c must be a finite number")
    except ValueError as exc:
        return str(exc)
    if not abs(f - f_expected) <= _FREQ_SANITY_REL_TOL * f_expected:
        return (f"dyad {i}: frequency {f!r} does not match the grid "
                f"(expected {f_expected!r})")
    return None


def _read_document(file, p: str) -> Spectrum:
    """Parse and check an open spectrum file with one json.loads, naming the first fault."""
    try:
        doc = json.loads(_decoded(file.read(), p))  # the text is freed once it is parsed
    # JSONDecodeError, an integer literal over 4300 digits, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(p, f"not valid JSON: {exc}") from None
    grid = _grid(doc, p)
    n = grid.n
    records = doc["dyads"]
    _require(isinstance(records, list), p, "dyads must be an array")
    _require(len(records) == n, p, f"expected {n} dyad records, found {len(records)}")
    expected_freqs = _train_frequencies(grid).tolist()
    for pos, rec in enumerate(records):
        fault = _record_fault(pos, rec, n, expected_freqs[pos])
        _require(fault is None, p, fault)
    return Spectrum(grid, [rec["c"] for rec in records], doc["unit"])


_CHUNK = 1 << 18
# _DYAD_RECORD + _RECORD_SEP cut at its fields; as a pattern, the fixed text is
# escaped, the i, f_hz and c tokens are groups, the display a run of _DISPLAY_CHARS
_FIELDS = {b"%d": rb"([0-9]+)", b"%s": rb"([-+.0-9eE]+)",
           _DISPLAY: b"[" + re.escape(_DISPLAY_CHARS) + b"]*"}
_PIECES = re.split(b"(%s)" % b"|".join(map(re.escape, _FIELDS)), _DYAD_RECORD + _RECORD_SEP)
_RECORD = re.compile(b"".join(_FIELDS.get(piece) or re.escape(piece) for piece in _PIECES))


def _read_canonical(file, name: str) -> Spectrum | None:
    """The spectrum in a binary file of the canonical layout; None if it departs from it.

    `read_spectrum` opens its input once and hands this reader a regular
    file, or a pipe's copy: a tempfile.TemporaryFile as large as the stream,
    in tempfile.gettempdir() and gone when the read ends. One pass, front to
    back, reads each byte once: json.loads decodes the header, and the file's
    size only bounds n before n floats are allocated. Then, per chunk of
    _CHUNK bytes behind the partial record carried from the one before (at
    first, the bytes after the header), one _RECORD.split cuts the complete
    records (every separator piece but the last must be empty, so the
    records are contiguous; the last is the new carry), one json.loads
    parses their i, f_hz and c tokens, and the c row goes straight into the
    coefficients. An empty chunk is the end of the file, where the carry
    must end in _TAIL, read as _RECORD_SEP. A header that fails, a gap
    between records, a malformed token, a carry longer than _CHUNK or a
    count other than n departs from the layout: `read_spectrum` then reads
    the same open file again, whole in memory, with `_read_document`, for
    the same result or fault. The first faulty record, worded by
    `_record_fault`, is named only once the whole file holds to the layout
    with n records, in the document reader's order of faults.
    """
    size = os.fstat(file.fileno()).st_size
    head = file.read(_CHUNK)
    pos = head.find(_HEAD_END) + len(_HEAD_END)
    if pos < len(_HEAD_END):
        return None
    try:
        # the dyads array then closes the top-level object
        doc = json.loads(head[:pos].decode("utf-8") + "]}")
        grid = _grid(doc, name)  # the message is dropped: the fallback names the fault
    except (ValueError, RecursionError, FileFormatError):
        return None
    n = grid.n
    if n * len(_PIECES[0]) > size:  # too few bytes for n records
        return None
    coefficients = np.empty(n)
    carry, chunk, done, more, fault = head[pos:], file.read(_CHUNK), 0, True, None
    while more:
        if not chunk:  # the end of the file: the last record then ends like the others
            if not carry.endswith(_TAIL):
                return None
            carry, chunk, more = carry[: -len(_TAIL)], _RECORD_SEP, False
        pieces = _RECORD.split(carry + chunk)
        count = len(pieces) // 4
        if done + count > n or any(pieces[0:-1:4]):
            return None
        try:  # every i, then every f_hz, then every c; each token is a JSON int or float
            tokens = json.loads(b"[" + b",".join(pieces[1::4] + pieces[2::4] + pieces[3::4]) + b"]")
        except ValueError:  # a malformed token
            return None
        try:
            column = np.array(tokens, dtype=np.float64)
        except OverflowError:  # inf for an int past the float range, so its record is named
            column = np.array([float(str(token)) for token in tokens])
        index, frequency, coefficients[done : done + count] = column.reshape(3, count)
        expected = _train_frequencies(grid, done + 1, done + count)
        passed = ((index == np.arange(done + 1, done + count + 1))
                  & (np.abs(frequency - expected) <= _FREQ_SANITY_REL_TOL * expected)
                  & np.isfinite(coefficients[done : done + count]))
        if fault is None and not passed.all():  # the first record that fails, from its tokens
            at = int(np.argmin(passed))
            fault = _record_fault(done + at, dict(zip(("i", "f_hz", "c"), tokens[at::count])),
                                  n, float(expected[at]))
        done, carry = done + count, pieces[-1]
        if len(carry) > _CHUNK:
            return None
        chunk = file.read(_CHUNK) if more else b""
    if carry or done != n:
        return None
    _require(fault is None, name, fault)
    return Spectrum(grid, coefficients, doc["unit"])


def read_spectrum(path) -> Spectrum:
    """Parse and validate a spectrum JSON file.

    Checks the record count, ascending 1..n indices, finite numbers, and
    that stored frequencies agree with the grid's frequency law; display
    strings are presentation-only and ignored. How the input is read, once
    for the layout of `write_spectrum` and again only for a file that
    departs from it, is told in `_read_canonical`'s docstring.
    """
    with _faults_named(path, "cannot read file"), contextlib.ExitStack() as files:
        file = files.enter_context(Path(path).open("rb"))
        if not file.seekable():  # a pipe, FIFO or terminal: read in blocks from a copy
            with _faults_named(path, "cannot copy to a temporary file"):
                copy = files.enter_context(tempfile.TemporaryFile())
            while chunk := file.read(_CHUNK):  # a fault reading the stream is the input's
                with _faults_named(path, "cannot copy to a temporary file"):
                    copy.write(chunk)
                    copy.flush()  # so that no fault of the copy is left for the seek
            copy.seek(0)
            file = copy
        spectrum = _read_canonical(file, str(path))
        if spectrum is None:
            file.seek(0)
            spectrum = _read_document(file, str(path))
    return spectrum


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
    _write_text(path, [(json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()])
