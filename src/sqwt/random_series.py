"""Seeded synthetic series built from uniform decimal digits.

Eight digits map to one value: a sign digit, two integer-part digits and
five fractional digits, giving values in [-99.99999, 99.99999] with exactly
five decimals. `_digits` mixes a 64-bit counter that starts at the seed,
so a seed fully determines the series on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import TimeSeries
from .waves import GridSpec, _is_integer, _shown

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# largest multiple of 10 that fits in 64 bits; draws at or above it would
# make digits 0..5 slightly more likely than 6..9
_REJECT_ABOVE = (1 << 64) - ((1 << 64) % 10)
# values per vectorised block in `generate`; bounds its scratch memory to a
# few arrays of 8 * _BLOCK draws
_BLOCK = 1 << 12
# weights of digits 2-8 in the scaled magnitude (value * 100000)
_DIGIT_WEIGHTS = np.array([1_000_000, 100_000, 10_000, 1_000, 100, 10, 1], dtype=np.int64)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of every uint64 element, in place; uint64 wraps mod 2**64."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return z


def _digits(state: int, count: int) -> tuple[np.ndarray, int]:
    """`count` uniform digits 0-9 as an int64 array, and the counter after them.

    Draw k from the counter `state` mixes state + k * gamma (splitmix-style).
    A draw in the top sliver of the 64-bit range is rejected and its
    shortfall drawn from the following counters, so every digit is exactly
    equally likely and the digits do not depend on how many are drawn at once.
    """
    parts = []
    while count:
        k = np.arange(1, count + 1, dtype=np.uint64)
        k *= np.uint64(_GAMMA)
        k += np.uint64(state)
        state = (state + count * _GAMMA) & _MASK64
        z = _mix64_array(k)
        accepted = z[z < np.uint64(_REJECT_ABOVE)]
        parts.append((accepted % np.uint64(10)).astype(np.int64))
        count -= len(accepted)
    return np.concatenate(parts), state


@dataclass(frozen=True)
class GeneratedSeries:
    """A generated TimeSeries together with the seed that produced it."""

    series: TimeSeries
    seed: int


def _values_from_digits(d: np.ndarray) -> np.ndarray:
    """One value per row of an (m, 8) digit array.

    A first digit of 0-4 makes the value negative, 5-9 positive; digits two
    and three are the integer part, the last five the fractional part. A
    zero magnitude comes out as +0.0 regardless of the sign digit.
    """
    scaled = d[:, 1:] @ _DIGIT_WEIGHTS
    values = scaled / 100000.0
    np.negative(values, out=values, where=(d[:, 0] <= 4) & (scaled != 0))
    return values


def generate(seed: int, grid: GridSpec) -> GeneratedSeries:
    """Draw grid.n consecutive values on the grid, eight digits each, from counter `seed`.

    The digits are drawn in vectorised blocks of at most _BLOCK values, each
    from the counter that the block before left.
    """
    if not _is_integer(seed) or not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {_shown(seed)}")
    n = grid.n
    state = seed = int(seed)
    values = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        digits, state = _digits(state, 8 * (stop - start))
        values[start:stop] = _values_from_digits(digits.reshape(-1, 8))
    return GeneratedSeries(TimeSeries(values, grid), seed)
