import math
import re

import numpy as np
import pytest

from sqwt import GridSpec, SignPattern, apply_sign_matrix, sign_at, train_frequency

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


@pytest.mark.parametrize("check", [
    lambda n: GridSpec(n, 1.0, 1.0),
    lambda n: GridSpec.from_duration(n, 1.0),
    lambda n: GridSpec.from_sampling_rate(n, 1.0),
    lambda n: sign_at(n, 1, 1),
    SignPattern,
], ids=["GridSpec", "from_duration", "from_sampling_rate", "sign_at", "SignPattern"])
@pytest.mark.parametrize("n", [0, 2.5, "3"])
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

    @pytest.mark.parametrize("n,i,span", [(8, 5, 4), (10, 10, 1), (10, 1, 10), (1, 1, 1)])
    def test_half_wave_span(self, n, i, span):
        # train i holds its sign for n - i + 1 subintervals, and its frequency
        # is f_s over twice that span
        grid = GridSpec.from_duration(n, 2.0)
        assert grid.f_s / (2.0 * train_frequency(grid, i)) == pytest.approx(span, rel=1e-15)
        assert [sign_at(n, k, i) for k in range(1, span + 1)] == [1] * span
        if span < n:
            assert sign_at(n, span + 1, i) == -1
