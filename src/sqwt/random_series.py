"""Seeded synthetic series built from uniform decimal digits.

Eight digits map to one value: a sign digit, two integer-part digits and
five fractional digits, giving values in [-99.99999, 99.99999] with exactly
five decimals. The digit source is a counter-based 64-bit mixer, so a seed
fully determines the series on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .transform import TimeSeries
from .waves import GridSpec

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


class DigitStream:
    """Deterministic uniform digits 0-9 from a 64-bit seed.

    Each draw mixes an incrementing counter (splitmix-style), rejects the
    top sliver of the 64-bit range, and reduces modulo 10; rejection keeps
    every digit exactly equally likely.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < (1 << 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = int(seed)
        self._state = int(seed)

    def _digits(self, count: int) -> np.ndarray:
        """The next `count` digits as an int64 array.

        Draw k from the current state mixes state + k * gamma; rejected draws
        are dropped and the shortfall is drawn from the following counters,
        so the digits do not depend on how many are drawn at once.
        """
        parts = []
        while count:
            k = np.arange(1, count + 1, dtype=np.uint64)
            k *= np.uint64(_GAMMA)
            k += np.uint64(self._state)
            self._state = (self._state + count * _GAMMA) & _MASK64
            z = _mix64_array(k)
            accepted = z[z < np.uint64(_REJECT_ABOVE)]
            parts.append((accepted % np.uint64(10)).astype(np.int64))
            count -= len(accepted)
        return np.concatenate(parts)


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


def generate(seed: int, n: int, grid: GridSpec) -> GeneratedSeries:
    """Draw n consecutive values from a fresh DigitStream(seed) on the grid.

    Each value takes the next eight digits of the stream; they are drawn in
    vectorised blocks of at most _BLOCK values.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if grid.n != n:
        raise DimensionMismatch(f"grid is sized for {grid.n} samples, requested {n}")
    stream = DigitStream(seed)
    values = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        digits = stream._digits(8 * (stop - start)).reshape(-1, 8)
        values[start:stop] = _values_from_digits(digits)
    return GeneratedSeries(TimeSeries(values, grid), stream.seed)
