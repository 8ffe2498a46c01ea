"""Block reader for spectrum files in the layout `fileio.write_spectrum` writes.

That canonical layout is json.dumps(doc, indent=2) + "\n": a header ending
in _HEAD_END, records laid out as `fileio._DYAD_RECORD` and joined by
",\n", then _TAIL. `read_canonical` reads such a file in chunks of _CHUNK
bytes and checks each block of records with numpy; the f_hz and c tokens
go through json.loads, so every number is JSON's own float. It returns
None at the first departure from the layout or the first record that
fails a check, and `fileio.read_spectrum` then reads the file as one JSON
document, which gives the same result or names the fault.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import FileFormatError
from .fileio import _DISPLAY_CHARS, _float_column, _frequencies_match, _grid
from .transform import Spectrum

_HEAD_END = b'\n  "dyads": [\n'
_TAIL = b"\n  ]\n}\n"
_CHUNK = 1 << 18
# the fixed text before each record's i, f_hz, c and display tokens and
# after its display token; the reader ends the last record with ",\n" too
_SEGMENTS = (
    b'    {\n      "i": ', b',\n      "f_hz": ', b',\n      "c": ',
    b',\n      "display": "', b'"\n    },\n',
)
# where the f_hz, c and display tokens start, after the newline that ends
# the line before theirs
_TOKEN_OFFSETS = np.array([[15], [12], [19]])
# the reader gathers _WINDOW bytes at the start of each segment and token;
# a start lies at most 19 bytes past a newline, so padding each block with
# _PAD keeps every window inside it
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
    canonical layout, or holds a record that `fileio._record_fault` would name.
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
    pos = head.find(_HEAD_END) + len(_HEAD_END)
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
    if file.read() != _TAIL:
        return None
    file.seek(pos)
    # one buffer for every block: a carried partial record, a chunk, the
    # last record's ",\n" and _PAD; a record longer than _CHUNK falls back
    buf = bytearray(min(2 * _CHUNK, size) + 2 + len(_PAD))
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
            buf[stop : stop + 2] = b",\n"
            stop += 2
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
