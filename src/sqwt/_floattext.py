"""ASCII bytes of float64 arrays, byte for byte as Python's `repr` writes each value.

The shortest round-trip digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), run on whole blocks of values in
numpy: the value's significand is scaled by a 126-bit approximation of a
power of ten, and among the decimals that round back to the value the
shortest is chosen, then the one closest to it, then the one whose last
digit is even. The digits are then laid out by `repr`'s rule: fixed
notation when -4 < decpt <= 16, otherwise `d.ddde±XX`, into a fixed-width
byte template per value whose slots not shown hold 0; one `bytes.translate`
drops them from each block's text.

Subnormals and non-finite values go through `repr` itself.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# values formatted per block, 64 KB per uint64 temporary: 10^5 plot-data rows
# took about 1.6 times as long in one block and 1.4 times in 4,096-value blocks
_BLOCK = 1 << 13

# k ranges over floor(log10(2^q)) for the exponents q of normal doubles
_K_MIN, _K_MAX = -324, 292
_MASK63 = np.uint64((1 << 63) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)

# slots of one value's template, each holding its character or 0 if the value
# does not show it: sign, "0.000" prefix, 17 digits each followed by a '.'
# slot, "e±ddd" and the separator that follows the value in its row
_SIGN, _PREFIX, _DIGITS, _EXP, _SEP, _WIDTH = 0, 1, 6, 40, 45, 46
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,", dtype=np.uint8)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]
_POWERS = np.array([[100], [10], [1]])  # the places of the exponent's three digits
# the longest repr of a double, as in -2.2250738585072014e-308
_REPR_MAX = 24


def _pow10_approximation(k: int) -> int:
    """g with (g - 1) 2^r <= 10^-k < g 2^r for the r that puts g in [2^125, 2^126]."""
    if k <= 0:
        p = 10**-k
        shift = p.bit_length() - 126
        return (p >> shift if shift >= 0 else p << -shift) + 1
    p = 10**k
    return (1 << (125 + p.bit_length())) // p + 1


@cache
def _table() -> tuple[np.ndarray, np.ndarray]:
    """g = g1 2^63 + g0 for k = _K_MIN.._K_MAX, as two read-only uint64 arrays."""
    g = [_pow10_approximation(k) for k in range(_K_MIN, _K_MAX + 1)]
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)
    g1.flags.writeable = g0.flags.writeable = False
    return g1, g0


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _round_to_odd(g1, g0, cp):
    """cp g 2^-127 rounded to odd: the floor, its lowest bit set when bits were cut."""
    cp_lo, cp_hi = cp & _MASK32, cp >> 32
    x1 = _mulhi(g0 & _MASK32, g0 >> 32, cp_lo, cp_hi)
    y1 = _mulhi(g1 & _MASK32, g1 >> 32, cp_lo, cp_hi)
    z = (g1 * cp >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _MASK63) + _MASK63 >> 63)


def _shortest(bits):
    """(d, k): the shortest-then-closest decimal d 10^k of each normal double's bits."""
    g1_table, g0_table = _table()
    exponent = (bits >> 52).astype(np.int64) & 0x7FF
    fraction = bits & np.uint64((1 << 52) - 1)
    c = fraction | np.uint64(1 << 52)
    q = exponent - 1075
    # at a power of two the next double down is half as far away
    irregular = (fraction == 0) & (exponent > 1)
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) at a power of two
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    # h = q + floor(log2(10^-k)) + 2, in 1..4
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(np.uint64)
    g1 = g1_table[k - _K_MIN]
    g0 = g0_table[k - _K_MIN]
    cb = c << np.uint64(2)
    # the rounding interval's centre and ends, 4 units per ulp step; an even
    # significand rounds to itself from both ends, so they count
    out = c & np.uint64(1)
    vb = _round_to_odd(g1, g0, cb << h)
    vbl = _round_to_odd(g1, g0, cb - np.uint64(2) + irregular << h) + out
    vbr = _round_to_odd(g1, g0, cb + np.uint64(2) << h) - out

    s = vb >> np.uint64(2)
    t = s + np.uint64(1)
    # both s and t round back: take the one closer to v, the even one on a tie
    cmp = vb.astype(np.int64) - ((s + t) << np.uint64(1)).astype(np.int64)
    d = np.where((cmp < 0) | (cmp == 0) & (s & np.uint64(1) == 0), s, t)
    # only one of them rounds back
    uin = vbl <= s << np.uint64(2)
    d = np.where(uin != (t << np.uint64(2) <= vbr), np.where(uin, s, t), d)
    # a decimal one digit shorter rounds back
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl <= sp10 << np.uint64(2)
    return np.where(upin != (tp10 << np.uint64(2) <= vbr), np.where(upin, sp10, tp10), d), k


def _layout(x, chars) -> None:
    """Fill the value templates of x, one slot per row of chars, with 0 in each slot not shown."""
    bits = x.view(np.uint64)
    exponent = bits >> np.uint64(52) & np.uint64(0x7FF)
    # zeros, subnormals, infinities and nan, for which 1.0 stands in
    rare = (exponent == 0) | (exponent == 0x7FF)
    any_rare = rare.any()
    if any_rare:
        bits = np.where(rare, np.uint64(0x3FF0000000000000), bits)
    d, k = _shortest(bits)

    # left-align the 16 or 17 digits of d in 17 places
    sixteen = d < np.uint64(10**16)
    aligned = np.where(sixteen, d * np.uint64(10), d)
    high = aligned // np.uint64(10**9)
    parts = np.stack([high, aligned - high * np.uint64(10**9)]).astype(np.uint32)
    digits = np.empty((2, 9, len(x)), dtype=np.uint8)
    for j in range(8, -1, -1):
        quotient = parts // np.uint32(10)
        digits[:, j] = parts - quotient * np.uint32(10)
        parts = quotient
    digits = digits.reshape(18, len(x))[1:]
    # significant digits: up to the last one that is not zero
    length = np.max((digits != 0) * _PLACES, axis=0)
    decpt = k + 17 - sixteen

    fixed = (decpt > -4) & (decpt <= 16)
    whole = fixed & (decpt > 0)
    scientific = ~fixed
    # digits shown: enough to reach the '.' and one digit after it in fixed
    # notation with decpt > 0, all significant digits otherwise
    shown = np.where(whole, np.maximum(length, decpt + 1), length)
    dot_after = np.where(whole, decpt, scientific & (length > 1))

    chars[:] = _TEMPLATE[:, None]
    chars[_SIGN] *= np.signbit(x)
    chars[_PREFIX:_DIGITS] *= _PLACES[:5] <= np.where(fixed & ~whole, 2 - decpt, 0)
    chars[_DIGITS:_EXP:2] = (digits + ord("0")) * (_PLACES <= shown)
    chars[_DIGITS + 1 : _EXP : 2] *= _PLACES == dot_after

    e = decpt - 1
    magnitude = np.abs(e)
    chars[_EXP + 1] = np.where(e < 0, ord("-"), ord("+"))
    chars[_EXP + 2 : _SEP] = magnitude // _POWERS % 10 + ord("0")
    chars[_EXP:_SEP] *= scientific
    chars[_EXP + 2] *= magnitude >= 100

    if any_rare:
        chars[_DIGITS, rare & (x == 0)] = ord("0")  # the stand-in's "1.0" reads "0.0"
        at = np.flatnonzero(rare & (x != 0))
        texts = np.array([repr(v) for v in x[at].tolist()], dtype=f"S{_REPR_MAX}")
        chars[:_REPR_MAX, at] = texts.view(np.uint8).reshape(-1, _REPR_MAX).T
        chars[_REPR_MAX:_SEP, at] = 0


def repr_rows(columns):
    """Yield the ASCII bytes of the rows of the float64 columns, block by block.

    Each row is `repr(float(v))` of its values joined by ',' and ends with
    '\\n'. A block holds at most _BLOCK values.
    """
    columns = [np.ascontiguousarray(column, dtype=np.float64) for column in columns]
    n, width = len(columns[0]), len(columns)
    rows = max(1, _BLOCK // width)
    chars = np.empty((_WIDTH, width * min(n, rows)), dtype=np.uint8)
    for start in range(0, n, rows):
        block = [column[start : start + rows] for column in columns]
        size = width * len(block[0])
        c = chars[:, :size]
        _layout(np.concatenate(block), c)
        c[_SEP, size - len(block[0]) :] = ord("\n")
        # slot-major (slot, column, row) to row-major text, less the slots not shown
        yield c.reshape(_WIDTH, width, -1).T.tobytes().translate(None, b"\0")
