"""The block formatter writes exactly the bytes of Python's `repr`."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwt import _floattext
from sqwt._floattext import repr_rows


def formatted(values) -> list[str]:
    return b"".join(repr_rows([np.asarray(values, dtype=np.float64)])).decode().split("\n")[:-1]


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = formatted(values)
    expected = [repr(v) for v in values.tolist()]
    assert len(got) == len(expected)
    wrong = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not wrong, f"{len(wrong)} values differ from repr, first (repr, got): {wrong[:5]}"


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def neighbours(x: float) -> list[float]:
    """x and the doubles one ulp below and above it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


class TestAgainstRepr:
    def test_random_bit_patterns_over_every_exponent(self):
        rng = np.random.default_rng(20200610)
        n = 1_000_000
        sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
        exponent = np.arange(n, dtype=np.uint64) % np.uint64(2047) << np.uint64(52)
        fraction = rng.integers(0, 1 << 52, n, dtype=np.uint64)
        assert_matches_repr(from_bits(sign | exponent | fraction))

    def test_uniform_and_five_decimal_values(self):
        rng = np.random.default_rng(5)
        assert_matches_repr(rng.uniform(-1e4, 1e4, 50_000))
        assert_matches_repr(rng.integers(-9_999_999, 10_000_000, 50_000) / 100_000.0)

    def test_train_frequencies(self):
        for fs in (1000.0, 1.0, 44100.0, 0.3):
            assert_matches_repr(fs / (2.0 * np.arange(20_000, 0, -1, dtype=np.float64)))

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        values = [x for e in range(-1022, 1024) for x in neighbours(2.0**e)]
        values += [x for e in range(-307, 309) for x in neighbours(float(f"1e{e}"))]
        assert_matches_repr(values)
        assert_matches_repr(np.negative(values))

    @pytest.mark.parametrize("x", [1e16, 9999999999999998.0, 1e-4, 1e-5, 1e15, 1e17])
    def test_notation_switch_points(self, x):
        assert_matches_repr(neighbours(x) + [-v for v in neighbours(x)])

    def test_switch_point_forms(self):
        assert formatted([1e16, 9999999999999998.0, 0.0001, 1e-5, 123.0, 0.5]) == [
            "1e+16", "9999999999999998.0", "0.0001", "1e-05", "123.0", "0.5"]

    def test_integers_around_two_to_the_53(self):
        assert_matches_repr([float(2**53 + k) for k in range(-64, 65)])
        assert_matches_repr([float(2**53 * 10**e + k) for e in range(4) for k in (-4, 0, 4)])

    def test_extremes_subnormals_and_zeros(self):
        tiny = 5e-324
        values = [
            2.2250738585072014e-308, 1.7976931348623157e308, tiny, 2 * tiny, 1e-310,
            math.nextafter(2.2250738585072014e-308, 0.0), 0.0, -0.0,
            math.inf, -math.inf, math.nan,
        ]
        assert_matches_repr(values + [-v for v in values])

    def test_zeros_among_values(self):
        values = np.zeros(20_000)
        values[::3] = -0.0
        values[::7] = np.random.default_rng(0).uniform(-1.0, 1.0, len(values[::7]))
        assert_matches_repr(values)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_float(self, x):
        assert formatted([x]) == [repr(x)]


class TestRows:
    @pytest.mark.parametrize("block", [1, 3, 4, _floattext._BLOCK])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_rows_across_blocks(self, monkeypatch, block, n):
        monkeypatch.setattr(_floattext, "_BLOCK", block)
        rng = np.random.default_rng(n)
        a = rng.uniform(-1e3, 1e3, n)
        b = rng.uniform(-1e-3, 1e-3, n)
        a[n // 2] = -0.0  # a value formatted by repr itself, in a later block
        assert b"".join(repr_rows([a])) == "".join(f"{v!r}\n" for v in a.tolist()).encode()
        assert b"".join(repr_rows([a, b])) == "".join(
            f"{x!r},{y!r}\n" for x, y in zip(a.tolist(), b.tolist())).encode()

    @pytest.mark.parametrize("block", [2, 4, 6])
    def test_block_of_rare_values_only(self, monkeypatch, block):
        # zeros and subnormals in both columns, rows straddling block boundaries:
        # the padded repr copies and their emptied tail slots meet each separator
        monkeypatch.setattr(_floattext, "_BLOCK", block)
        a = np.array([0.0, -0.0, 5e-324, -1e-310, -0.0])
        b = np.array([-1e-310, 5e-324, -0.0, 0.0, -1e-310])
        rows = [f"{x!r},{y!r}\n" for x, y in zip(a.tolist(), b.tolist())]
        per_block = block // 2
        assert list(repr_rows([a, b])) == [
            "".join(rows[i : i + per_block]).encode() for i in range(0, len(rows), per_block)]

    def test_blocks_hold_at_most_block_values(self, monkeypatch):
        monkeypatch.setattr(_floattext, "_BLOCK", 4)
        blocks = list(repr_rows([np.ones(5), np.ones(5)]))
        assert blocks == [b"1.0,1.0\n" * 2] * 2 + [b"1.0,1.0\n"]

    def test_empty_columns(self):
        assert list(repr_rows([np.empty(0)])) == []


class TestTable:
    def test_packed_table_equals_its_definition(self):
        g1, g0 = _floattext._table()
        assert len(g1) == len(g0) == _floattext._K_MAX - _floattext._K_MIN + 1 == 617
        assert not g1.flags.writeable and not g0.flags.writeable
        for pos, k in enumerate(range(_floattext._K_MIN, _floattext._K_MAX + 1)):
            power = Fraction(10) ** -k
            # r with 2^125 <= 10^-k / 2^r < 2^126
            r = power.numerator.bit_length() - power.denominator.bit_length() - 126
            while power / Fraction(2) ** r >= 2**126:
                r += 1
            while power / Fraction(2) ** r < 2**125:
                r -= 1
            g = math.floor(power / Fraction(2) ** r) + 1
            assert (g - 1) * Fraction(2) ** r <= power < g * Fraction(2) ** r
            assert (int(g1[pos]), int(g0[pos])) == (g >> 63, g & (2**63 - 1)), k

