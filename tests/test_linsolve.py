import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwt import DimensionMismatch, SignPattern, apply_sign_matrix, solve

import oracles
from oracles import solve_sign_system_exact, solve_sign_system_sieve

PAPER_VALUES = np.array([84.0, -152.0, 63.0, 98.0, -35.0, 0.0, 145.0, -14.0])
PAPER_COEFFS = np.array([170.5, -38.5, -100.5, -135.5, 195.0, -135.5, 10.5, 118.0])


def assemble_dense(pattern):
    """The matrix apply_sign_matrix represents, assembled one unit vector per column."""
    return np.column_stack([apply_sign_matrix(pattern, e) for e in np.eye(pattern.n)])


class TestAssembleDense:
    """The operator's columns are exactly the trains' sign sequences."""

    def test_n2(self):
        a = assemble_dense(SignPattern(2))
        assert np.array_equal(a, [[1.0, 1.0], [1.0, -1.0]])

    def test_n1(self):
        assert np.array_equal(assemble_dense(SignPattern(1)), [[1.0]])

    def test_n8_row6(self):
        a = assemble_dense(SignPattern(8))
        assert list(a[5]) == [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 31])
    def test_entries_match_sign_rule(self, n):
        a = assemble_dense(SignPattern(n))
        pattern = SignPattern(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert a[i - 1, j - 1] == pattern.sign(i, j)

    def test_dtype_and_shape(self):
        a = assemble_dense(SignPattern(7))
        assert a.dtype == np.float64 and a.shape == (7, 7)


class TestApplySignMatrix:
    def test_paper_coefficients_reproduce_values(self):
        y = apply_sign_matrix(SignPattern(8), PAPER_COEFFS)
        assert np.array_equal(y, PAPER_VALUES)  # dyadic-rational inputs, exact sums

    def test_zero_vector(self):
        assert np.array_equal(apply_sign_matrix(SignPattern(9), np.zeros(9)), np.zeros(9))

    def test_n3_ones(self):
        # enumerated by hand from runs (3, 2, 1): rows (+++), (++-), (+-+)
        y = apply_sign_matrix(SignPattern(3), np.ones(3))
        assert list(y) == [3.0, 1.0, 1.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 33, 64])
    def test_equals_dense_multiply_exactly_on_integer_vectors(self, n):
        # integer-valued inputs keep every summation order exact, so the
        # divisor recurrence and a dense product must agree bit for bit
        rng = np.random.default_rng(n)
        x = rng.integers(-8, 9, n).astype(np.float64)
        a = np.array(oracles.sign_matrix(n))
        assert np.array_equal(apply_sign_matrix(SignPattern(n), x), a @ x)

    @pytest.mark.parametrize("n", [5, 21, 64])
    def test_close_to_dense_multiply_on_float_vectors(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.uniform(-100, 100, n)
        a = np.array(oracles.sign_matrix(n))
        assert np.allclose(apply_sign_matrix(SignPattern(n), x), a @ x,
                           rtol=0, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_sign_matrix(SignPattern(4), np.zeros(5))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-100, 100, 50)
        first = apply_sign_matrix(SignPattern(50), x)
        second = apply_sign_matrix(SignPattern(50), x)
        assert np.array_equal(first, second)


class TestProductOverflow:
    def test_overflow_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="product overflows float64"):
                apply_sign_matrix(SignPattern(4), np.full(4, 1e308))

    def test_non_finite_input_is_not_called_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = apply_sign_matrix(SignPattern(3), np.array([1.0, np.inf, 0.0]))
        assert not np.all(np.isfinite(out))


class TestSolve:
    def test_paper_system(self):
        x, report = solve(SignPattern(8), PAPER_VALUES)
        assert np.allclose(x, PAPER_COEFFS, rtol=0, atol=1e-12)
        assert report.residual_inf_norm <= 1e-12
        assert report.min_pivot == 1.0
        assert report.elapsed_seconds > 0

    def test_n1(self):
        x, report = solve(SignPattern(1), np.array([7.25]))
        assert np.array_equal(x, [7.25])
        assert report.residual_inf_norm == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_n6_matches_rational_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rhs = rng.uniform(-100, 100, 6)
        x, _ = solve(SignPattern(6), rhs)
        exact = [float(c) for c in solve_sign_system_exact(6, rhs)]
        assert np.allclose(x, exact, rtol=0, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve(SignPattern(4), np.zeros(3))

    def test_non_finite_rhs_rejected(self):
        with pytest.raises(ValueError):
            solve(SignPattern(3), np.array([1.0, np.nan, 0.0]))

    def test_coefficient_overflow_raises_without_warnings(self):
        rhs = np.random.default_rng(3).uniform(-1.0, 1.0, 200) * 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="coefficients overflow float64"):
                solve(SignPattern(200), rhs)

    def test_zero_refinement_steps_allowed(self):
        # the first substitution reproduces the paper series exactly, so the
        # refinement step is skipped
        x, report = solve(SignPattern(8), PAPER_VALUES)
        assert report.refinement_steps_used == 0
        assert report.residual_inf_norm == 0.0
        assert np.array_equal(x, PAPER_COEFFS)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(11)
        rhs = rng.uniform(-100, 100, 77)
        x1, _ = solve(SignPattern(77), rhs)
        x2, _ = solve(SignPattern(77), rhs)
        assert np.array_equal(x1, x2)

    @pytest.mark.parametrize("n", [64, 512, 2048, 4096])
    def test_residual_bound_after_refinement(self, n):
        rng = np.random.default_rng(n)
        rhs = rng.uniform(-100, 100, n)
        _, report = solve(SignPattern(n), rhs)
        assert report.residual_inf_norm <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_matches_exact_sieve_oracle_at_scale(self, n):
        rhs = np.random.default_rng(n).uniform(-99.99999, 99.99999, n)
        x, _ = solve(SignPattern(n), rhs)
        exact = np.array([float(c) for c in solve_sign_system_sieve(n, rhs)])
        assert np.max(np.abs(x - exact)) <= 1e-10
        assert np.mean(x == exact) >= 0.99  # correctly rounded coefficients


class TestClosedForms:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300),
           a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_constant_series_is_train_one(self, n, a):
        x, _ = solve(SignPattern(n), np.full(n, a))
        assert np.array_equal(x, np.r_[a, np.zeros(n - 1)])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300),
           a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_alternating_series_is_train_n(self, n, a):
        rhs = np.where(np.arange(n) % 2, -a, a)
        x, _ = solve(SignPattern(n), rhs)
        assert np.array_equal(x, np.r_[np.zeros(n - 1), a])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sieve_oracle_matches_elimination_oracle(self, n):
        rhs = np.random.default_rng(n).uniform(-100, 100, n)
        assert solve_sign_system_sieve(n, rhs) == solve_sign_system_exact(n, rhs)

    @pytest.mark.parametrize("n, l0", [(60, 4), (97, 3), (500, 7), (1000, 10)])
    def test_coefficients_vanish_off_the_divisor_support(self, n, l0):
        # V_{i+1} - V_i is zero unless l0 divides i, so every span l < n that
        # l0 does not divide has a zero coefficient (its divisors miss l0 too)
        rng = np.random.default_rng(n)
        steps = np.where(np.arange(1, n) % l0 == 0, rng.integers(-50, 51, n - 1), 0)
        rhs = np.concatenate([[rng.integers(-50, 51)], steps]).cumsum().astype(np.float64)
        x, _ = solve(SignPattern(n), rhs)
        spans = n - np.arange(n)  # x[j - 1] belongs to the train of span n - j + 1
        off = (spans < n) & (spans % l0 != 0)
        assert np.all(x[off] == 0.0)
        exact = np.array([float(c) for c in solve_sign_system_sieve(n, rhs)])
        assert np.all(exact[off] == 0.0)
        assert np.array_equal(x, exact)
