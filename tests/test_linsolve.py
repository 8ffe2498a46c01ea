import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwt import (
    DimensionMismatch,
    GridSpec,
    SignPattern,
    SolveReport,
    apply_sign_matrix,
    generate,
    sign_at,
    solve,
)

import oracles
import sqwt.linsolve as linsolve
from oracles import (
    sign_matrix_product_rounded,
    solve_sign_system_exact,
    solve_sign_system_rounded,
    solve_sign_system_scaled,
)

PAPER_VALUES = np.array([84.0, -152.0, 63.0, 98.0, -35.0, 0.0, 145.0, -14.0])
PAPER_COEFFS = np.array([170.5, -38.5, -100.5, -135.5, 195.0, -135.5, 10.5, 118.0])


def bits(x):
    """The float64 bit patterns of x: unlike ==, tells -0.0 from +0.0."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


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
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert a[i - 1, j - 1] == sign_at(n, i, j)

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
        # a non-finite x is refused up front; OverflowError is left for finite input
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x contains non-finite values$"):
                apply_sign_matrix(SignPattern(3), np.array([1.0, np.inf, 0.0]))


class TestSolve:
    def test_paper_system(self):
        x, report = solve(SignPattern(8), PAPER_VALUES)
        assert np.allclose(x, PAPER_COEFFS, rtol=0, atol=1e-12)
        assert report.residual_inf_norm <= 1e-12
        assert [f.name for f in dataclasses.fields(SolveReport)] == [
            "residual_inf_norm", "refinement_steps_used", "elapsed_seconds"]
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

    def test_no_correction_when_sums_are_exact(self):
        # every sum of the paper series is exact, so no correction is added
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
    def test_largest_compensation_term_is_small(self, n):
        rng = np.random.default_rng(n)
        rhs = rng.uniform(-100, 100, n)
        _, report = solve(SignPattern(n), rhs)
        assert report.residual_inf_norm <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("n", [4000, 100_000])
    @pytest.mark.parametrize("family", ["generated", "uniform"])
    def test_report_gives_the_largest_correction(self, family, n):
        # each coefficient is a pair (hi, lo), the plain sum and the sum of
        # its rounding errors, rounded once; the report gives max |lo|, and
        # counts one step if any correction was added
        rhs = series_family(family, n)
        x, report = solve(SignPattern(n), rhs)
        hi, lo = linsolve._substitute(rhs)
        assert np.array_equal(bits(x), bits(hi[:0:-1] + lo[:0:-1]))
        assert report.residual_inf_norm == np.max(np.abs(lo)) > 0.0
        assert report.refinement_steps_used == 1
        # the plain sums drift from the exact ones by far less than the series
        scale = np.max(np.abs(rhs))
        assert report.residual_inf_norm <= 1e-9 * max(1.0, scale)
        # the error after the correction is the round trip
        after = np.max(np.abs(apply_sign_matrix(SignPattern(n), x) - rhs))
        assert after <= 1e-9 * max(1.0, scale)

    @pytest.mark.parametrize("rhs, steps", [
        (PAPER_VALUES, 0), (np.linspace(-99.5, 99.25, 500) ** 3, 1),
    ], ids=["no correction", "corrected"])
    def test_solve_forms_no_product(self, monkeypatch, rhs, steps):
        # one compensated substitution: no call to the product, and no zeta
        # sweep (the prime steps with powers)
        calls = []
        prime_steps = linsolve._prime_steps

        def product(*args):
            calls.append("apply_sign_matrix")
            return apply_sign_matrix(*args)

        def steps_of(m, powers=False):
            calls.append(f"_prime_steps(powers={powers})")
            return prime_steps(m, powers)

        monkeypatch.setattr(linsolve, "apply_sign_matrix", product)
        monkeypatch.setattr(linsolve, "_prime_steps", steps_of)
        _, report = solve(SignPattern(len(rhs)), rhs)
        assert calls == ["_prime_steps(powers=False)"]
        assert report.refinement_steps_used == steps

    @pytest.mark.parametrize("rhs", [
        np.random.default_rng(2000).uniform(-99.99999, 99.99999, 2000),
        np.random.default_rng(4000).uniform(-99.99999, 99.99999, 4000),
        np.full(2000, -0.0),  # train 1 is +0.0, as in the oracle, although V_1 is -0.0
    ], ids=["2000", "4000", "all -0.0"])
    def test_matches_exact_sieve_oracle_at_scale(self, rhs):
        n = rhs.shape[0]
        x, _ = solve(SignPattern(n), rhs)
        exact = solve_sign_system_rounded(rhs)
        assert np.array_equal(bits(x), bits(exact))  # every coefficient correctly rounded


class TestClosedForms:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300),
           a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_constant_series_is_train_one(self, n, a):
        x, _ = solve(SignPattern(n), np.full(n, a))
        assert np.array_equal(x, np.r_[a, np.zeros(n - 1)])
        assert not np.signbit(x[1:]).any()

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
        numerators, shift = solve_sign_system_scaled(rhs)
        exact = [Fraction(k, 1 << shift) for k in numerators]
        assert exact == solve_sign_system_exact(n, rhs)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_product_oracle_matches_fraction_product(self, n):
        x = np.random.default_rng(50 + n).uniform(-100, 100, n)
        exact = [float(sum(s * Fraction(v) for s, v in zip(row, x.tolist())))
                 for row in oracles.sign_matrix(n)]
        assert np.array_equal(bits(sign_matrix_product_rounded(x)), bits(exact))

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
        exact = solve_sign_system_rounded(rhs)
        assert np.all(exact[off] == 0.0)
        assert np.array_equal(x, exact)


def series_family(family, n):
    rng = np.random.default_rng(n)
    if family == "generated":
        return generate(7, GridSpec.from_sampling_rate(n, 1000.0)).series.values
    if family == "uniform":
        return rng.uniform(-1e3, 1e3, n)
    return rng.lognormal(0.0, 3.0, n) * rng.choice([-1.0, 1.0], n)  # signed lognormal


@pytest.mark.parametrize("family", ["generated", "uniform", "lognormal"])
class TestCorrectlyRoundedAt100k:
    """The accuracy contract, against the exact integer oracle at n = 10^5."""

    def test_every_coefficient_correctly_rounded(self, family):
        rhs = series_family(family, 100_000)
        x, _ = solve(SignPattern(100_000), rhs)
        assert np.array_equal(bits(x), bits(solve_sign_system_rounded(rhs)))

    def test_every_product_sample_correctly_rounded(self, family):
        x, _ = solve(SignPattern(100_000), series_family(family, 100_000))
        y = apply_sign_matrix(SignPattern(100_000), x)
        assert np.array_equal(bits(y), bits(sign_matrix_product_rounded(x)))

    def test_round_trip_within_the_rounding_bound(self, family):
        # c is the exact solution rounded to nearest and the product of c is
        # rounded to nearest, so |A c - V|_i <= sum_j ulp(c_j) / 2 and the
        # rebuilt sample adds at most ulp(rebuilt_i) / 2
        rhs = series_family(family, 100_000)
        x, _ = solve(SignPattern(100_000), rhs)
        rebuilt = apply_sign_matrix(SignPattern(100_000), x)
        bound = np.sum(np.spacing(np.abs(x))) / 2 + np.spacing(np.abs(rebuilt)) / 2
        assert np.all(np.abs(rebuilt - rhs) <= bound)


def wide_family(family, n):
    """A series of wide dynamic range, drawn with seed 1."""
    rng = np.random.default_rng(1)
    if family.startswith("lognormal"):  # signed lognormal(0, sigma)
        sigma = float(family.removeprefix("lognormal"))
        return rng.lognormal(0.0, sigma, n) * rng.choice([-1.0, 1.0], n)
    if family == "two_scales":  # half U(-1, 1) * 1e12, half U(-1, 1) * 1e-12, shuffled
        scales = rng.permutation(np.repeat([1e12, 1e-12], [n - n // 2, n // 2]))
        return rng.uniform(-1.0, 1.0, n) * scales
    values = rng.uniform(-1.0, 1.0, n)  # "spikes": 1e15 added at 5% of the samples
    values[rng.choice(n, n // 20, replace=False)] += 1e15
    return values


WIDE_FAMILIES = ["lognormal3", "lognormal6", "lognormal10", "lognormal20", "two_scales", "spikes"]


@pytest.mark.parametrize("family", WIDE_FAMILIES)
class TestWideRangeAt2000:
    """What holds for every family at n = 2,000: every coefficient correctly
    rounded, a normwise bound on the coefficients and on the product (whose
    small samples beside large ones are not always correctly rounded), and
    the round-trip bound at every sample."""

    def test_every_coefficient_correctly_rounded(self, family):
        rhs = wide_family(family, 2_000)
        x, _ = solve(SignPattern(2_000), rhs)
        assert np.array_equal(bits(x), bits(solve_sign_system_rounded(rhs)))

    def test_coefficients_within_half_an_ulp_of_the_largest(self, family):
        rhs = wide_family(family, 2_000)
        x, _ = solve(SignPattern(2_000), rhs)
        exact = solve_sign_system_rounded(rhs)
        assert np.max(np.abs(x - exact)) <= np.spacing(np.max(np.abs(exact))) / 2

    def test_product_within_half_an_ulp_of_the_largest(self, family):
        x, _ = solve(SignPattern(2_000), wide_family(family, 2_000))
        y = apply_sign_matrix(SignPattern(2_000), x)
        exact = sign_matrix_product_rounded(x)
        assert np.max(np.abs(y - exact)) <= np.spacing(np.max(np.abs(exact))) / 2

    def test_round_trip_within_the_rounding_bound(self, family):
        rhs = wide_family(family, 2_000)
        x, _ = solve(SignPattern(2_000), rhs)
        rebuilt = apply_sign_matrix(SignPattern(2_000), x)
        bound = np.sum(np.spacing(np.abs(x))) / 2 + np.spacing(np.abs(rebuilt)) / 2
        assert np.all(np.abs(rebuilt - rhs) <= bound)


@pytest.mark.parametrize("n", [187, 219, 256])
def test_bounds_hold_where_train_1_misrounds(n):
    """At these n, train 1's coefficient of signed lognormal(0, 20) (span n,
    V_1 minus the compensated total of the others) is one ulp off c*; the
    normwise coefficient bound and the round-trip bound still hold."""
    rhs = wide_family("lognormal20", n)
    x, _ = solve(SignPattern(n), rhs)
    exact = solve_sign_system_rounded(rhs)
    assert np.max(np.abs(x - exact)) <= np.spacing(np.max(np.abs(exact))) / 2
    rebuilt = apply_sign_matrix(SignPattern(n), x)
    bound = np.sum(np.spacing(np.abs(x))) / 2 + np.spacing(np.abs(rebuilt)) / 2
    assert np.all(np.abs(rebuilt - rhs) <= bound)


class TestCorrectlyRoundedOnLognormal6:
    """Componentwise correct rounding also holds on signed lognormal(0, 6) at n = 2,000."""

    def test_every_coefficient_correctly_rounded(self):
        rhs = wide_family("lognormal6", 2_000)
        x, _ = solve(SignPattern(2_000), rhs)
        assert np.array_equal(bits(x), bits(solve_sign_system_rounded(rhs)))

    def test_every_product_sample_correctly_rounded(self):
        x, _ = solve(SignPattern(2_000), wide_family("lognormal6", 2_000))
        y = apply_sign_matrix(SignPattern(2_000), x)
        assert np.array_equal(bits(y), bits(sign_matrix_product_rounded(x)))


# n - 1 at the edges of the prime sweeps: 1 and 2; a prime (97, 1,031,
# 9,973); a prime square (11^2, 13^2, 31^2); a prime fourth power (3^4,
# 5^4); a power of two or one less
SWEEP_EDGES = [2, 3, 98, 1032, 9974, 122, 170, 962, 82, 626, 129, 128, 1025, 1024, 4097]


@pytest.mark.parametrize("n", SWEEP_EDGES)
@pytest.mark.parametrize("family", ["generated", "lognormal"])
class TestCorrectlyRoundedAtSweepEdges:
    """Bit-exact against the integer oracle where the sweeps' slices start or stop."""

    def test_every_coefficient_correctly_rounded(self, family, n):
        rhs = series_family(family, n)
        x, _ = solve(SignPattern(n), rhs)
        assert np.array_equal(bits(x), bits(solve_sign_system_rounded(rhs)))

    def test_every_product_sample_correctly_rounded(self, family, n):
        x, _ = solve(SignPattern(n), series_family(family, n))
        y = apply_sign_matrix(SignPattern(n), x)
        assert np.array_equal(bits(y), bits(sign_matrix_product_rounded(x)))


@pytest.mark.parametrize("function, vectors", [(solve, 6.5), (apply_sign_matrix, 6.5)],
                         ids=["solve", "apply_sign_matrix"])
def test_traced_peak_at_100k(function, vectors):
    """The solver's tracemalloc peak at n = 10^5, in float64 vectors of length n.

    The bounds are the measured peaks (6.0 vectors each) rounded up to
    the next half vector, so one more vector kept alive fails.
    """
    n = 100_000
    rhs = series_family("generated", n)
    argument = rhs if function is solve else solve(SignPattern(n), rhs)[0]
    tracemalloc.start()
    try:
        function(SignPattern(n), argument)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vectors * 8 * n, f"peaked at {peak / (8 * n):.2f} vectors"
