import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from sqwt import GridSpec, SignPattern, apply_sign_matrix, sign_at, train_frequency, waves

from oracles import run_length_sign


class TestGridSpec:
    def test_consistent_grid_accepted(self):
        grid = GridSpec(8, 2.0, 4.0)
        assert (grid.n, grid.delta_t, grid.f_s) == (8, 2.0, 4.0)

    def test_from_duration_derives_rate(self):
        grid = GridSpec.from_duration(8, 2.0)
        assert grid.f_s == 4.0

    def test_from_sampling_rate_derives_duration(self):
        grid = GridSpec.from_sampling_rate(10000, 2000.0)
        assert grid.delta_t == 5.0

    def test_inconsistent_grid_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            GridSpec(8, 2.0, 4.1)

    def test_consistency_tolerance_boundary(self):
        GridSpec(10, 1.0, 10.0 * (1.0 + 5e-10))  # inside 1e-9 relative
        with pytest.raises(ValueError):
            GridSpec(10, 1.0, 10.0 * (1.0 + 3e-9))

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError):
            GridSpec(n, 1.0, n if isinstance(n, int) else 2.5)

    @pytest.mark.parametrize("delta_t", [0.0, -2.0, math.inf, math.nan])
    def test_bad_delta_t_rejected(self, delta_t):
        with pytest.raises(ValueError):
            GridSpec.from_duration(4, delta_t)

    def test_bad_f_s_rejected(self):
        with pytest.raises(ValueError):
            GridSpec.from_sampling_rate(4, 0.0)

    @pytest.mark.parametrize("value", [True, "1", None, 1j])
    @pytest.mark.parametrize("check,name", [
        (lambda v: GridSpec(4, v, 4.0), "delta_t"),
        (lambda v: GridSpec(4, 1.0, v), "f_s"),
        (lambda v: GridSpec.from_duration(4, v), "delta_t"),
        (lambda v: GridSpec.from_sampling_rate(4, v), "f_s"),
    ], ids=["GridSpec delta_t", "GridSpec f_s", "from_duration", "from_sampling_rate"])
    def test_bool_and_non_real_rejected_by_name(self, check, name, value):
        message = f"{name} must be a positive real, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(value)

    @pytest.mark.parametrize("check,message", [
        (lambda: GridSpec.from_duration(4, 1e-320),
         "delta_t = 1e-320 is too small for n = 4: n / delta_t overflows"),
        (lambda: GridSpec.from_sampling_rate(4, 5e-324),
         "f_s = 5e-324 is too small for n = 4: n / f_s overflows"),
    ], ids=["from_duration", "from_sampling_rate"])
    def test_overflowing_derived_field_names_the_given_one(self, check, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()

    def test_derived_field_computed_in_double_precision(self):
        grid = GridSpec.from_duration(4, np.float32(0.1))
        assert (grid.delta_t, grid.f_s) == (float(np.float32(0.1)), 4 / float(np.float32(0.1)))
        assert type(grid.n) is int and type(grid.f_s) is float

    @pytest.mark.parametrize("check,message", [
        (lambda: GridSpec(10**400, 1.0, 1.0), "n must be a positive integer"),
        (lambda: GridSpec(4, 10**400, 4), "delta_t must be a positive real"),
        (lambda: GridSpec(4, 1.0, -(10**400)), "f_s must be a positive real"),
        (lambda: GridSpec.from_sampling_rate(4, 10**400), "f_s must be a positive real"),
        (lambda: GridSpec.from_sampling_rate(10**400, 2.0), "n must be a positive integer"),
        (lambda: GridSpec.from_duration(10**400, 2.0), "n must be a positive integer"),
        (lambda: SignPattern(10**400), "n must be a positive integer"),
    ], ids=["GridSpec n", "GridSpec delta_t", "GridSpec f_s", "from_sampling_rate f_s",
            "from_sampling_rate n", "from_duration n", "SignPattern"])
    def test_int_past_float_range_named_by_digits(self, check, message):
        with pytest.raises(ValueError, match=f"^{message}, got an integer of 401 digits$"):
            check()

    @pytest.mark.parametrize("check,message", [
        (lambda: GridSpec(4, Fraction(10**400), 4.0), "delta_t must be a positive real"),
        (lambda: GridSpec.from_sampling_rate(4, Fraction(10**400)), "f_s must be a positive real"),
        (lambda: GridSpec.from_duration(4, Fraction(-10**400)), "delta_t must be a positive real"),
    ], ids=["GridSpec delta_t", "from_sampling_rate f_s", "from_duration delta_t"])
    def test_fraction_past_float_range_named_by_integer_digits(self, check, message):
        with pytest.raises(ValueError, match=f"^{message}, got a Fraction of 401 integer digits$"):
            check()

    @pytest.mark.parametrize("check,message", [
        (lambda: GridSpec(4, Fraction(1, 10**5000), 4.0),
         "delta_t must be a positive real, got a Fraction of 1 numerator and 5001"
         " denominator digits"),
        (lambda: GridSpec.from_sampling_rate(4, Fraction(1, 10**5000)),
         "f_s must be a positive real, got a Fraction of 1 numerator and 5001"
         " denominator digits"),
        (lambda: GridSpec.from_duration(4, Fraction(10**4400 + 1, 10**4720)),
         "delta_t = a Fraction of 4401 numerator and 4721 denominator digits is too small"
         " for n = 4: n / delta_t overflows"),
        (lambda: GridSpec(-(10**5000), 1.0, 1.0),
         "n must be a positive integer, got an integer of 5001 digits"),
    ], ids=["GridSpec delta_t", "from_sampling_rate f_s", "from_duration delta_t", "GridSpec n"])
    def test_value_too_long_for_repr_named_by_digits(self, check, message):
        # repr of an int past 4,300 digits raises Python's own ValueError
        with pytest.raises(ValueError, match=f"^{message}$"):
            check()

    @pytest.mark.parametrize("digits", [310, 400, 4300, 4301, 5000])
    @pytest.mark.parametrize("offset", [-1, 0], ids=["all nines", "power of ten"])
    def test_digit_count_of_long_ints(self, digits, offset):
        n = 10 ** (digits - 1 - offset) + offset  # 10**d - 1 has d digits, 10**d has d + 1
        message = f"n must be a positive integer, got an integer of {digits} digits"
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSpec(n, 1.0, 1.0)
        with pytest.raises(ValueError, match=f"^delta_t must be a positive real, got an integer"
                                             f" of {digits} digits$"):
            GridSpec(4, n, 4.0)

    def test_largest_int_below_float_range_accepted(self):
        n = int(sys.float_info.max)
        assert GridSpec.from_sampling_rate(n, 2.0).n == n
        with pytest.raises(ValueError, match="^n must be a positive integer, got an integer"
                                             " of 309 digits$"):
            GridSpec.from_sampling_rate(2**1024, 2.0)


@pytest.mark.parametrize("check", [
    lambda n: GridSpec(n, 1.0, 1.0),
    lambda n: GridSpec.from_duration(n, 1.0),
    lambda n: GridSpec.from_sampling_rate(n, 1.0),
    lambda n: sign_at(n, 1, 1),
    SignPattern,
], ids=["GridSpec", "from_duration", "from_sampling_rate", "sign_at", "SignPattern"])
@pytest.mark.parametrize("n", [0, 2.5, "3", True])
def test_every_size_check_names_n(check, n):
    with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {n!r}")):
        check(n)


class TestSignAt:
    @pytest.mark.parametrize(
        "n,i,j,expected",
        [
            (8, 1, 8, 1),   # last train starts positive
            (8, 4, 6, -1),
            (8, 8, 2, -1),
            (5, 3, 1, 1),   # first train never flips
        ],
    )
    def test_examples(self, n, i, j, expected):
        assert sign_at(n, i, j) == expected

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            sign_at(8, 0, 1)
        with pytest.raises(IndexError):
            sign_at(8, 1, 9)
        with pytest.raises(ValueError):
            sign_at(0, 1, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 33, 64])
    def test_matches_run_length_oracle(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert sign_at(n, i, j) == run_length_sign(n, i, j), (n, i, j)

    def test_known_8x8_row_and_column(self):
        # subinterval 6 across all trains, and train 7 down all subintervals
        row6 = [sign_at(8, 6, j) for j in range(1, 9)]
        assert row6 == [1, 1, 1, -1, -1, -1, 1, -1]
        col7 = [sign_at(8, i, 7) for i in range(1, 9)]
        assert col7 == [1, 1, -1, -1, 1, 1, -1, -1]

    def test_last_train_alternates_every_row(self):
        for n in (1, 2, 7, 16):
            for i in range(1, n + 1):
                assert sign_at(n, i, n) == (1 if i % 2 == 1 else -1)

    @pytest.mark.parametrize("n", [1, 3, 8, 17, 40])
    def test_columns_are_alternating_runs(self, n):
        for j in range(1, n + 1):
            l = n - j + 1
            expected = []
            sign = 1
            while len(expected) < n:
                expected.extend([sign] * l)
                sign = -sign
            assert [sign_at(n, i, j) for i in range(1, n + 1)] == expected[:n]

    def test_first_train_never_flips(self):
        assert all(sign_at(31, i, 1) == 1 for i in range(1, 32))

    def test_numpy_integers_accepted_and_floats_rejected(self):
        assert sign_at(np.int64(8), np.int64(4), np.int64(6)) == -1
        with pytest.raises(IndexError):
            sign_at(8, 4.0, 6)
        with pytest.raises(IndexError):
            sign_at(8, 4, 6.0)

    def test_bool_indices_rejected(self):
        with pytest.raises(IndexError):
            sign_at(2, True, 1)
        with pytest.raises(IndexError):
            sign_at(2, 1, True)
        with pytest.raises(IndexError):
            train_frequency(GridSpec(2, 1.0, 2.0), True)

    def test_index_too_long_for_repr_named_by_digits(self):
        with pytest.raises(IndexError, match=r"^subinterval index i must be in \[1\.\.4\], got an"
                                             " integer of 5001 digits$"):
            sign_at(4, 10**5000, 1)


class TestSignPattern:
    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            SignPattern(0)

    def test_numpy_integer_size_accepted(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(apply_sign_matrix(SignPattern(np.int64(3)), x),
                              apply_sign_matrix(SignPattern(3), x))


class TestTrainFrequency:
    @pytest.mark.parametrize(
        "n,delta_t,i,expected,tol",
        [
            (8, 2.0, 8, 2.0, 0.0),
            (8, 2.0, 5, 0.5, 0.0),
            (8, 2.0, 1, 0.25, 0.0),
            (8, 2.0, 2, 2.0 / 7.0, 0.0),
            (10000, 5.0, 1, 0.100000, 5e-7),
            (10000, 5.0, 2, 0.100010, 5e-7),
            (10000, 5.0, 100, 0.101000, 5e-7),
        ],
    )
    def test_examples(self, n, delta_t, i, expected, tol):
        grid = GridSpec.from_duration(n, delta_t)
        assert train_frequency(grid, i) == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("n,delta_t", [(1, 5.0), (8, 2.0), (100, 0.5), (777, 3.0)])
    def test_strictly_increasing_and_endpoints(self, n, delta_t):
        grid = GridSpec.from_duration(n, delta_t)
        freqs = [train_frequency(grid, i) for i in range(1, n + 1)]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))
        assert freqs[-1] == grid.f_s / 2.0
        assert freqs[0] == pytest.approx(1.0 / (2.0 * delta_t), rel=1e-12)

    def test_lowest_frequency_exact_on_decimal_grids(self):
        grid = GridSpec.from_duration(10000, 5.0)
        assert train_frequency(grid, 1) == 0.1

    def test_out_of_range(self):
        grid = GridSpec.from_duration(4, 1.0)
        with pytest.raises(IndexError):
            train_frequency(grid, 5)

    @pytest.mark.parametrize("i", [0, -3, 2.5])
    def test_index_outside_grid_rejected(self, i):
        grid = GridSpec.from_duration(4, 1.0)
        with pytest.raises(IndexError, match="train index i"):
            train_frequency(grid, i)

    @pytest.mark.parametrize("n,first,last", [(1, 1, 1), (7, 1, 7), (7, 3, 5), (64, 64, 64),
                                              (64, 10, 9)])
    def test_vectorised_law_matches_each_train(self, n, first, last):
        grid = GridSpec.from_duration(n, 2.0)
        freqs = waves._train_frequencies(grid, first, last)
        assert freqs.tolist() == [train_frequency(grid, i) for i in range(first, last + 1)]

    @pytest.mark.parametrize("n,f_s", [(1, 1.0), (7, 3.0), (10**4, 2000.0), (10**4, 0.1),
                                       (4097, 1e-300), (100, 1e300)])
    def test_every_train_follows_the_law_bit_for_bit(self, n, f_s):
        grid = GridSpec.from_sampling_rate(n, f_s)
        for i in range(1, n + 1):
            got = train_frequency(grid, i)
            assert type(got) is float
            assert got.hex() == (grid.f_s / (2.0 * (n - i + 1))).hex(), i

    @pytest.mark.parametrize("n,i,span", [(8, 5, 4), (10, 10, 1), (10, 1, 10), (1, 1, 1)])
    def test_half_wave_span(self, n, i, span):
        # train i holds its sign for n - i + 1 subintervals, and its frequency
        # is f_s over twice that span
        grid = GridSpec.from_duration(n, 2.0)
        assert grid.f_s / (2.0 * train_frequency(grid, i)) == pytest.approx(span, rel=1e-15)
        assert [sign_at(n, k, i) for k in range(1, span + 1)] == [1] * span
        if span < n:
            assert sign_at(n, span + 1, i) == -1
