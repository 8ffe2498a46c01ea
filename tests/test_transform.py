import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwt import (
    DimensionMismatch,
    GridSpec,
    Spectrum,
    TimeSeries,
    forward,
    inverse,
    reconstruction_report,
    train_frequency,
)

from oracles import solve_sign_system_exact

PAPER_VALUES = [84.0, -152.0, 63.0, 98.0, -35.0, 0.0, 145.0, -14.0]
PAPER_COEFFS = [170.5, -38.5, -100.5, -135.5, 195.0, -135.5, 10.5, 118.0]
PAPER_FREQS = [0.25, 2.0 / 7.0, 1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0, 1.0, 2.0]


def paper_series():
    return TimeSeries(PAPER_VALUES, GridSpec.from_duration(8, 2.0), "mV")


def finite_values(n, bound=100.0):
    return st.lists(
        st.floats(min_value=-bound, max_value=bound, allow_nan=False),
        min_size=n, max_size=n,
    )


class TestTimeSeries:
    def test_basic(self):
        series = paper_series()
        assert series.n == 8 and series.unit == "mV"
        assert series.values.dtype == np.float64

    def test_length_must_match_grid(self):
        with pytest.raises(DimensionMismatch):
            TimeSeries([1.0, 2.0], GridSpec.from_duration(3, 1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, np.inf], GridSpec.from_duration(2, 1.0))

    def test_unit_must_be_a_string(self):
        with pytest.raises(ValueError, match=r"^unit must be a string, got None$"):
            TimeSeries([1.0], GridSpec.from_duration(1, 1.0), None)

    def test_values_are_read_only(self):
        series = paper_series()
        with pytest.raises(ValueError):
            series.values[0] = 0.0


class TestSpectrum:
    def test_dyads_ascending(self):
        spectrum = Spectrum(GridSpec.from_duration(4, 2.0), [1.0, 2.0, 3.0, 4.0])
        dyads = list(zip(spectrum.frequencies, spectrum.coefficients))
        assert [c for _, c in dyads] == [1.0, 2.0, 3.0, 4.0]
        assert dyads[3] == (spectrum.grid.f_s / 2.0, 4.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_frequencies_match_train_frequency_exactly(self, n):
        grid = GridSpec.from_duration(n, 2.0)
        spectrum = Spectrum(grid, np.zeros(n))
        for i in range(1, n + 1):
            assert spectrum.frequencies[i - 1] == train_frequency(grid, i)

    def test_unit_must_be_a_string(self):
        with pytest.raises(ValueError, match=r"^unit must be a string, got None$"):
            Spectrum(GridSpec.from_duration(1, 1.0), [1.0], None)

    def test_coefficient_length_checked(self):
        with pytest.raises(DimensionMismatch):
            Spectrum(GridSpec.from_duration(3, 1.0), [1.0])


class TestForward:
    def test_paper_example_coefficients(self):
        spectrum, report = forward(paper_series())
        assert np.allclose(spectrum.coefficients, PAPER_COEFFS, rtol=0, atol=1e-9)
        assert report.residual_inf_norm <= 1e-9

    def test_paper_example_frequencies(self):
        spectrum, _ = forward(paper_series())
        assert np.allclose(spectrum.frequencies, PAPER_FREQS, rtol=0, atol=1e-9)

    def test_unit_flows_through(self):
        spectrum, _ = forward(paper_series())
        assert spectrum.unit == "mV"
        assert inverse(spectrum).unit == "mV"

    @pytest.mark.parametrize("n", [1, 5, 17])
    def test_constant_series(self, n):
        grid = GridSpec.from_duration(n, 1.0)
        spectrum, _ = forward(TimeSeries(np.full(n, 42.25), grid))
        assert spectrum.coefficients[0] == pytest.approx(42.25, abs=1e-12)
        assert np.allclose(spectrum.coefficients[1:], 0.0, atol=1e-12)

    def test_zero_series_gives_zero_spectrum(self):
        grid = GridSpec.from_duration(12, 1.0)
        spectrum, _ = forward(TimeSeries(np.zeros(12), grid))
        assert np.array_equal(spectrum.coefficients, np.zeros(12))

    def test_n1_single_dyad(self):
        grid = GridSpec.from_duration(1, 5.0)
        spectrum, _ = forward(TimeSeries([3.5], grid))
        assert (spectrum.frequencies.tolist(), spectrum.coefficients.tolist()) == ([0.1], [3.5])


class TestInverse:
    def test_paper_rows(self):
        spectrum = Spectrum(GridSpec.from_duration(8, 2.0), PAPER_COEFFS)
        values = inverse(spectrum).values
        assert values[0] == 84.0
        assert values[1] == -152.0
        assert np.array_equal(values, PAPER_VALUES)

    def test_zero_spectrum(self):
        spectrum = Spectrum(GridSpec.from_duration(6, 1.0), np.zeros(6))
        assert np.array_equal(inverse(spectrum).values, np.zeros(6))


class TestReconstructionReport:
    def test_identical(self):
        series = paper_series()
        report = reconstruction_report(series, series)
        assert (report.max_abs_error, report.index_of_max, report.rms_error) == (0.0, 1, 0.0)

    def test_two_point_example(self):
        grid = GridSpec.from_duration(2, 1.0)
        report = reconstruction_report(
            TimeSeries([1.0, 2.0], grid), TimeSeries([1.0, 2.5], grid)
        )
        assert report.max_abs_error == 0.5
        assert report.index_of_max == 2
        assert report.rms_error == pytest.approx(0.3535533905932738, abs=1e-15)

    def test_first_index_wins_ties(self):
        grid = GridSpec.from_duration(3, 1.0)
        report = reconstruction_report(
            TimeSeries([0.0, 0.0, 0.0], grid), TimeSeries([1.0, -1.0, 1.0], grid)
        )
        assert report.index_of_max == 1

    def test_grid_mismatch_rejected(self):
        a = TimeSeries([1.0, 2.0], GridSpec.from_duration(2, 1.0))
        b = TimeSeries([1.0, 2.0], GridSpec.from_duration(2, 2.0))
        with pytest.raises(DimensionMismatch):
            reconstruction_report(a, b)

    def test_rms_plain_formula_when_squares_fit(self):
        # report bytes of ordinary series must not change
        rng = np.random.default_rng(6)
        grid = GridSpec.from_duration(40, 1.0)
        a, b = rng.uniform(-10, 10, 40), rng.uniform(-10, 10, 40)
        report = reconstruction_report(TimeSeries(a, grid), TimeSeries(b, grid))
        assert report.rms_error == float(np.sqrt(np.mean(np.square(np.abs(a - b)))))

    def test_rms_finite_where_squares_overflow(self):
        grid = GridSpec.from_duration(3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = reconstruction_report(
                TimeSeries([3e300, -3e300, 0.0], grid), TimeSeries([0.0, 0.0, 0.0], grid)
            )
        assert report.max_abs_error == 3e300
        assert report.rms_error == pytest.approx(3e300 * np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_rms_never_exceeds_max(self):
        rng = np.random.default_rng(5)
        grid = GridSpec.from_duration(50, 1.0)
        report = reconstruction_report(
            TimeSeries(rng.uniform(-10, 10, 50), grid),
            TimeSeries(rng.uniform(-10, 10, 50), grid),
        )
        assert report.rms_error <= report.max_abs_error * (1 + 1e-12)


class TestRoundTrip:
    def test_paper_series_round_trip_and_oracle(self):
        series = paper_series()
        spectrum, _ = forward(series)
        report = reconstruction_report(series, inverse(spectrum))
        assert report.max_abs_error <= 1e-10
        exact = [float(c) for c in solve_sign_system_exact(8, PAPER_VALUES)]
        assert np.allclose(spectrum.coefficients, exact, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=64))
    def test_round_trip_property(self, data, n):
        values = np.array(data.draw(finite_values(n)))
        grid = GridSpec.from_duration(n, 2.0)
        series = TimeSeries(values, grid)
        spectrum, _ = forward(series)
        report = reconstruction_report(series, inverse(spectrum))
        assert report.max_abs_error <= 1e-9 * max(1.0, np.max(np.abs(values), initial=0.0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=64))
    def test_dual_round_trip_property(self, data, n):
        coefficients = np.array(data.draw(finite_values(n)))
        grid = GridSpec.from_duration(n, 2.0)
        spectrum = Spectrum(grid, coefficients)
        recovered, _ = forward(inverse(spectrum))
        bound = 1e-9 * max(1.0, np.max(np.abs(coefficients), initial=0.0))
        assert np.max(np.abs(recovered.coefficients - coefficients)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        a=st.floats(min_value=-10, max_value=10, allow_nan=False),
        b=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_linearity(self, data, a, b):
        n = 16
        grid = GridSpec.from_duration(n, 2.0)
        v = np.array(data.draw(finite_values(n)))
        w = np.array(data.draw(finite_values(n)))
        combined, _ = forward(TimeSeries(a * v + b * w, grid))
        sv, _ = forward(TimeSeries(v, grid))
        sw, _ = forward(TimeSeries(w, grid))
        expected = a * sv.coefficients + b * sw.coefficients
        scale = max(1.0, np.max(np.abs(expected), initial=0.0))
        assert np.max(np.abs(combined.coefficients - expected)) <= 1e-9 * scale


class TestSolverLookup:
    """forward and inverse call the solver through `sqwt.transform`'s globals, which a tracer may rebind."""

    def test_solver_names_are_linsolve_s(self):
        import sqwt.linsolve
        import sqwt.transform

        for name in ("solve", "apply_sign_matrix", "SolveReport"):
            assert getattr(sqwt.transform, name) is getattr(sqwt.linsolve, name)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            sqwt.transform.no_such_name

    def test_rebinding_reaches_forward_and_inverse(self, monkeypatch):
        import sqwt.transform

        calls = []

        def recording(name):
            original = getattr(sqwt.transform, name)
            return lambda *args: calls.append(name) or original(*args)

        for name in ("solve", "apply_sign_matrix"):
            monkeypatch.setattr(sqwt.transform, name, recording(name))
        spectrum, _ = forward(paper_series())
        assert np.array_equal(inverse(spectrum).values, PAPER_VALUES)
        assert calls == ["solve", "apply_sign_matrix"]
