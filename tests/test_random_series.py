import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chisquare

from sqwt import GridSpec, generate, train_frequency
from sqwt import random_series
from sqwt.random_series import _digits

from oracles import GAMMA, MASK64, REJECT_ABOVE, ScalarDigitStream, golden_10000, mix64, next_value


def _unshift(y, shift):
    """Inverse of x -> x ^ (x >> shift) on 64-bit words."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(z):
    """Inverse of oracles.mix64."""
    z = _unshift(z, 31)
    z = _unshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64, 27)
    return _unshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64, 30)


def seed_rejecting_draw(k):
    """A seed whose k-th draw (1-based) mixes to 2**64 - 1, which is rejected."""
    return (_unmix64(MASK64) - k * GAMMA) & MASK64


def scalar_values(seed, n):
    """The reference stream: n calls of oracles.next_value on one scalar stream."""
    stream = ScalarDigitStream(seed)
    return np.array([next_value(stream) for _ in range(n)])


def assert_same_values(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))  # no -0.0


class FixedDigits:
    """Stand-in stream feeding a scripted digit sequence."""

    def __init__(self, digits):
        self._digits = list(digits)

    def next_digit(self):
        return self._digits.pop(0)


def mapped(digits):
    """The value `generate` makes of one row of eight digits."""
    return float(random_series._values_from_digits(np.array([digits]))[0])


class TestDigitMapping:
    @pytest.mark.parametrize(
        "digits,expected",
        [
            ((3, 6, 2, 1, 7, 3, 8, 7), -62.17387),
            ((9, 0, 0, 0, 0, 0, 0, 0), 0.0),
            ((0, 9, 9, 9, 9, 9, 9, 9), -99.99999),
            ((5, 0, 0, 0, 0, 0, 0, 1), 0.00001),
            ((4, 9, 9, 9, 9, 9, 9, 9), -99.99999),  # 4 is still the negative branch
            ((5, 9, 9, 9, 9, 9, 9, 9), 99.99999),
        ],
    )
    def test_digit_mapping(self, digits, expected):
        assert mapped(digits) == expected

    def test_consumes_exactly_eight_digits_per_value(self):
        digits = _digits(42, 8 * 10)[0].reshape(10, 8)
        got = generate(42, GridSpec.from_sampling_rate(10, 2000.0)).series.values
        assert_same_values(got, random_series._values_from_digits(digits))

    def test_negative_zero_normalized(self):
        value = mapped((2, 0, 0, 0, 0, 0, 0, 0))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0


class TestDigits:
    def test_seed_validation(self):
        grid = GridSpec.from_sampling_rate(4, 2000.0)
        generate(0, grid)
        generate(2**64 - 1, grid)
        for bad in (-1, 2**64, 1.5, "7", True, False):
            with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer, got "):
                generate(bad, grid)

    def test_too_long_seed_named_by_digit_count(self):
        message = "^seed must be a 64-bit unsigned integer, got an integer of 5001 digits$"
        with pytest.raises(ValueError, match=message):
            generate(10**5000, GridSpec.from_sampling_rate(4, 2000.0))

    def test_digits_in_range(self):
        digits, _ = _digits(99, 2000)
        assert set(digits.tolist()) <= set(range(10))

    def test_same_seed_same_sequence(self):
        assert np.array_equal(_digits(1234, 500)[0], _digits(1234, 500)[0])

    def test_different_seeds_diverge(self):
        assert not np.array_equal(_digits(1, 100)[0], _digits(2, 100)[0])

    def test_digits_uniform_chi_square(self):
        # fixed seed, so this is a deterministic regression, not a flaky one
        counts = np.bincount(_digits(20240811, 1_000_000)[0], minlength=10)
        assert chisquare(counts).pvalue > 0.001


class TestGenerate:
    def grid(self, n, f_s=2000.0):
        return GridSpec.from_sampling_rate(n, f_s)

    def test_deterministic(self):
        g = self.grid(300)
        first = generate(42, g)
        second = generate(42, g)
        assert np.array_equal(first.series.values, second.series.values)
        assert first.seed == 42

    @pytest.mark.parametrize("grid", [
        GridSpec(8, 2.0, 4.0),
        GridSpec.from_duration(6, 3.0),
        GridSpec.from_sampling_rate(random_series._BLOCK + 3, 2000.0),
    ], ids=["GridSpec", "from_duration", "from_sampling_rate"])
    def test_series_lies_on_the_given_grid(self, grid):
        series = generate(3, grid).series
        assert series.grid == grid
        assert series.values.shape == (grid.n,)

    def test_shorter_grid_draws_a_prefix(self):
        # n is taken from the grid and does not enter the stream, so a
        # shorter grid, across a block boundary too, draws the same leading values
        n = random_series._BLOCK + 3
        full = generate(11, self.grid(n)).series.values
        for m in (1, random_series._BLOCK, n - 1):
            assert_same_values(generate(11, self.grid(m)).series.values, full[:m])

    def test_different_seeds_differ_early(self):
        g = self.grid(100)
        for s1, s2 in [(0, 1), (7, 8), (1000, 2000)]:
            a = generate(s1, g).series.values
            b = generate(s2, g).series.values
            assert not np.array_equal(a, b)

    def test_values_in_range_and_five_decimals(self):
        g = self.grid(10000)
        values = generate(42, g).series.values
        assert np.all(np.abs(values) <= 99.99999)
        scaled = values * 1e5
        assert np.max(np.abs(scaled - np.round(scaled))) < 1e-6

    def test_sign_balance(self):
        values = generate(77, self.grid(100_000)).series.values
        negatives = int(np.count_nonzero(values < 0))
        # binomial: 3 sigma around 50% of 1e5 draws; zeros count as positive,
        # which only nudges the negative side down by ~1 expected draw
        sigma = math.sqrt(100_000 * 0.25)
        assert abs(negatives - 50_000) <= 3 * sigma

    def test_single_value_grid_frequency(self):
        g = GridSpec.from_duration(1, 5.0)
        result = generate(9, g)
        assert result.series.n == 1
        assert train_frequency(g, 1) == 0.1


class TestVectorisedGenerate:
    """`generate` draws in numpy blocks; it must equal the scalar stream bit for bit."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 42])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_matches_scalar_stream(self, seed, n):
        got = generate(seed, GridSpec.from_sampling_rate(n, 2000.0)).series.values
        assert_same_values(got, scalar_values(seed, n))

    def test_digit_mapping_matches_next_value(self):
        rows = np.random.default_rng(8).integers(0, 10, (2000, 8))
        rows[:4] = [[2, 0, 0, 0, 0, 0, 0, 0], [7, 0, 0, 0, 0, 0, 0, 0],
                    [0, 9, 9, 9, 9, 9, 9, 9], [4, 0, 0, 0, 0, 0, 0, 1]]
        expected = np.array([next_value(FixedDigits(row)) for row in rows.tolist()])
        assert_same_values(random_series._values_from_digits(rows), expected)

    def test_matches_scalar_stream_across_blocks(self, monkeypatch):
        monkeypatch.setattr(random_series, "_BLOCK", 7)
        n = 100
        got = generate(42, GridSpec.from_sampling_rate(n, 2000.0)).series.values
        assert_same_values(got, scalar_values(42, n))

    def test_unmix_inverts_mix(self):
        for z in (0, 1, 42, GAMMA, MASK64, 0x0123456789ABCDEF):
            assert mix64(_unmix64(z)) == z

    def test_documented_rejecting_seed(self):
        seed = 13295932390644334935
        assert seed == seed_rejecting_draw(5)
        rejected = [k for k in range(1, 41)
                    if mix64((seed + k * GAMMA) & MASK64) >= REJECT_ABOVE]
        assert rejected == [5]
        got = generate(seed, GridSpec.from_sampling_rate(5, 2000.0)).series.values
        assert_same_values(got, scalar_values(seed, 5))

    @pytest.mark.parametrize("k", [1, 55, 56, 57, 800])
    def test_rejected_draw_is_skipped(self, monkeypatch, k):
        # with 7-value blocks, draw 56 ends the first block and draw 800 is
        # the last draw of the whole series, so its replacement is drawn again
        monkeypatch.setattr(random_series, "_BLOCK", 7)
        seed = seed_rejecting_draw(k)
        n = 100
        got = generate(seed, GridSpec.from_sampling_rate(n, 2000.0)).series.values
        assert_same_values(got, scalar_values(seed, n))

    @pytest.mark.parametrize("seed", [42, seed_rejecting_draw(3)])
    def test_block_draw_advances_state_like_scalar_draws(self, seed):
        scalar = ScalarDigitStream(seed)
        expected = [scalar.next_digit() for _ in range(40)]
        digits, state = _digits(seed, 40)
        assert digits.tolist() == expected
        assert state == scalar.state
        assert _digits(state, 1)[0].tolist() == [scalar.next_digit()]

    def test_cli_bytes_pinned(self, tmp_path):
        out = tmp_path / "gen.csv"
        result = subprocess.run(
            [sys.executable, "-m", "sqwt", "generate", "--seed", "42", "--n", "10000",
             "--fs", "2000", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        # as written by the scalar generator that drew one digit per next_digit call
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden_10000()["series.csv"]
