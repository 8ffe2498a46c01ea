"""Seeded benchmark inputs and expected outputs, built without the sqwt package.

Set-up must not depend on the layers under test, so the series files, the
spectrum JSON and the expected bytes of `sqwt generate` are all produced
here from the documented formats (README "File formats" and the digit
mapping of `sqwt.random_series`).
"""

from __future__ import annotations

import json

import numpy as np

FS_HZ = 1000.0

# splitmix64 constants of the documented counter-based digit stream
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_REJECT_ABOVE = np.uint64((1 << 64) - ((1 << 64) % 10))


def series_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values with exactly five decimals in [-99.99999, 99.99999]."""
    return rng.integers(-9_999_999, 10_000_000, n) / 100_000.0


def series_text(values: np.ndarray) -> str:
    """Series file body: one five-decimal value per line."""
    return "".join(f"{v:.5f}\n" for v in values.tolist())


def spectrum_frequencies(n: int, fs: float = FS_HZ) -> np.ndarray:
    """Train frequencies f_i = f_s / (2 (n - i + 1)), i = 1..n."""
    return fs / (2.0 * np.arange(n, 0, -1, dtype=np.float64))


def spectrum_text(coefficients: np.ndarray, fs: float = FS_HZ, unit: str = "") -> str:
    """Spectrum JSON exactly as `json.dumps(doc, indent=2) + "\\n"` lays it out."""
    n = len(coefficients)
    head = (
        "{\n"
        f'  "n": {n},\n'
        f'  "delta_t_s": {float(n / fs)!r},\n'
        f'  "f_s_hz": {float(fs)!r},\n'
        f'  "unit": {json.dumps(unit)},\n'
        '  "dyads": [\n'
    )
    records = [
        "    {\n"
        f'      "i": {i},\n'
        f'      "f_hz": {f!r},\n'
        f'      "c": {c!r},\n'
        f'      "display": "({f:.6f}; {c:.6f})"\n'
        "    }"
        for i, (f, c) in enumerate(
            zip(spectrum_frequencies(n, fs).tolist(), coefficients.tolist()), start=1
        )
    ]
    return head + ",\n".join(records) + "\n  ]\n}\n"


def generated_series_text(seed: int, n: int) -> str:
    """The bytes `sqwt generate --seed SEED --n N` must write.

    Draw k (k >= 1) mixes seed + k * gamma; a value takes eight digits: a
    sign digit (0-4 negative), two integer digits and five decimals.
    """
    k = np.arange(1, 8 * n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + k * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    if np.any(z >= _REJECT_ABOVE):
        # probability 6 / 2**64 per draw; the stream would skip this draw
        raise RuntimeError(f"seed {seed} hits a rejected draw; choose another seed")
    d = (z % np.uint64(10)).astype(np.int64).reshape(n, 8)
    scaled = (10 * d[:, 1] + d[:, 2]) * 100_000 + d[:, 3:] @ np.array(
        [10_000, 1_000, 100, 10, 1]
    )
    values = scaled / 100_000.0
    values[(d[:, 0] <= 4) & (scaled != 0)] *= -1.0
    return "".join(f"{v!r}\n" for v in values.tolist())
