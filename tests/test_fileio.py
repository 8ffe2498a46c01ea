import json
import re

import numpy as np
import pytest

from sqwt import FileFormatError, GridSpec, Spectrum, _floattext, fileio
from sqwt.fileio import (
    format_dyad_display,
    read_series_values,
    read_spectrum,
    write_plotdata,
    write_report,
    write_series_values,
    write_spectrum,
)
from sqwt.transform import ReconstructionReport


class TestSeriesFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "series.csv"
        values = np.array([84.0, -152.0, 0.1, 1.0 / 3.0, -99.99999, 1e-300, 0.0])
        write_series_values(path, values)
        assert np.array_equal(read_series_values(path), values)

    def test_optional_header_accepted(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1.5\n-2\n")
        assert np.array_equal(read_series_values(path), [1.5, -2.0])
        path.write_text("VALUE\n1.5\n")
        assert np.array_equal(read_series_values(path), [1.5])

    def test_no_header_needed(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("3\n4\n")
        assert np.array_equal(read_series_values(path), [3.0, 4.0])

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1e-3\n-2.5E+2\n")
        assert np.array_equal(read_series_values(path), [0.001, -250.0])

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\nbogus\n2.0\n")
        with pytest.raises(FileFormatError) as err:
            read_series_values(path)
        assert err.value.line == 2
        assert "series.csv" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rejected(self, tmp_path, token):
        path = tmp_path / "series.csv"
        path.write_text(f"1.0\n{token}\n")
        with pytest.raises(FileFormatError) as err:
            read_series_values(path)
        assert err.value.line == 2

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\n\n2.0\n")
        with pytest.raises(FileFormatError) as err:
            read_series_values(path)
        assert err.value.line == 2

    def test_empty_file_names_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FileFormatError) as err:
            read_series_values(path)
        assert "empty.csv" in str(err.value)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n")
        with pytest.raises(FileFormatError):
            read_series_values(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_series_values(tmp_path / "nope.csv")


def sample_spectrum():
    grid = GridSpec.from_duration(8, 2.0)
    coeffs = [170.5, -38.5, -100.5, -135.5, 195.0, -135.5, 10.5, 118.0]
    return Spectrum(grid, coeffs, "mV")


class TestSpectrumFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "spectrum.json"
        spectrum = sample_spectrum()
        write_spectrum(path, spectrum)
        loaded = read_spectrum(path)
        assert loaded.grid == spectrum.grid
        assert loaded.unit == "mV"
        assert np.array_equal(loaded.coefficients, spectrum.coefficients)
        assert np.array_equal(loaded.frequencies, spectrum.frequencies)

    def test_display_field_is_six_decimal(self, tmp_path):
        path = tmp_path / "spectrum.json"
        write_spectrum(path, sample_spectrum())
        doc = json.loads(path.read_text())
        assert doc["dyads"][0]["display"] == "(0.250000; 170.500000)"
        assert doc["dyads"][7]["display"] == "(2.000000; 118.000000)"

    def test_document_fields(self, tmp_path):
        path = tmp_path / "spectrum.json"
        write_spectrum(path, sample_spectrum())
        doc = json.loads(path.read_text())
        assert doc["n"] == 8
        assert doc["delta_t_s"] == 2.0
        assert doc["f_s_hz"] == 4.0
        assert [rec["i"] for rec in doc["dyads"]] == list(range(1, 9))

    def _mutated(self, tmp_path, mutate):
        path = tmp_path / "spectrum.json"
        write_spectrum(path, sample_spectrum())
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "spectrum.json"
        path.write_text("not json {")
        with pytest.raises(FileFormatError):
            read_spectrum(path)

    def test_missing_key_rejected(self, tmp_path):
        path = self._mutated(tmp_path, lambda d: d.pop("unit"))
        with pytest.raises(FileFormatError, match="unit"):
            read_spectrum(path)

    def test_wrong_record_count_rejected(self, tmp_path):
        path = self._mutated(tmp_path, lambda d: d["dyads"].pop())
        with pytest.raises(FileFormatError, match="records"):
            read_spectrum(path)

    def test_non_ascending_indices_rejected(self, tmp_path):
        def swap(doc):
            doc["dyads"][0]["i"], doc["dyads"][1]["i"] = 2, 1

        path = self._mutated(tmp_path, swap)
        with pytest.raises(FileFormatError, match="ascend"):
            read_spectrum(path)

    def test_inconsistent_grid_rejected(self, tmp_path):
        def bad_rate(doc):
            doc["f_s_hz"] = 5.0

        path = self._mutated(tmp_path, bad_rate)
        with pytest.raises(FileFormatError, match="inconsistent"):
            read_spectrum(path)

    def test_wrong_frequency_rejected(self, tmp_path):
        def bump(doc):
            doc["dyads"][2]["f_hz"] *= 1.01

        path = self._mutated(tmp_path, bump)
        with pytest.raises(FileFormatError, match="frequency"):
            read_spectrum(path)

    def test_six_decimal_frequencies_tolerated(self, tmp_path):
        # hand-written files may carry display-rounded frequencies
        def round_freqs(doc):
            for rec in doc["dyads"]:
                rec["f_hz"] = round(rec["f_hz"], 6)

        path = self._mutated(tmp_path, round_freqs)
        loaded = read_spectrum(path)
        assert loaded.n == 8

    def test_non_finite_coefficient_rejected(self, tmp_path):
        def poison(doc):
            doc["dyads"][0]["c"] = "oops"

        path = self._mutated(tmp_path, poison)
        with pytest.raises(FileFormatError):
            read_spectrum(path)


def reference_spectrum_text(spectrum):
    """The spectrum document as `json.dumps(doc, indent=2)` writes it."""
    freqs = spectrum.frequencies
    coeffs = spectrum.coefficients
    doc = {
        "n": spectrum.grid.n,
        "delta_t_s": spectrum.grid.delta_t,
        "f_s_hz": spectrum.grid.f_s,
        "unit": spectrum.unit,
        "dyads": [
            {
                "i": i + 1,
                "f_hz": float(freqs[i]),
                "c": float(coeffs[i]),
                "display": format_dyad_display(float(freqs[i]), float(coeffs[i])),
            }
            for i in range(spectrum.grid.n)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def random_spectrum(n, seed=0, unit=""):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1e4, 1e4, n) * 10.0 ** rng.integers(-20, 20, n)
    coeffs[: min(n, 3)] = [0.0, -0.0, 1e16][: min(n, 3)]
    return Spectrum(GridSpec.from_sampling_rate(n, 1000.0), coeffs, unit)


class TestSpectrumBytes:
    """write_spectrum formats records directly; its bytes are those of json.dumps."""

    @pytest.mark.parametrize("n", [1, 8, 4000])
    def test_matches_json_dumps(self, tmp_path, n):
        spectrum = random_spectrum(n, seed=n)
        path = tmp_path / "spectrum.json"
        write_spectrum(path, spectrum)
        assert path.read_text(encoding="utf-8") == reference_spectrum_text(spectrum)

    def test_non_ascii_unit_escaped_like_json_dumps(self, tmp_path):
        spectrum = random_spectrum(8, unit="µV")
        path = tmp_path / "spectrum.json"
        write_spectrum(path, spectrum)
        assert path.read_text(encoding="utf-8") == reference_spectrum_text(spectrum)
        assert '"unit": "\\u00b5V"' in path.read_text()
        assert read_spectrum(path).unit == "µV"

    def test_numpy_float_grid_fields(self, tmp_path):
        grid = GridSpec(8, np.float64(2.0), np.float64(4.0))
        spectrum = Spectrum(grid, sample_spectrum().coefficients, "mV")
        path = tmp_path / "spectrum.json"
        write_spectrum(path, spectrum)
        text = path.read_text(encoding="utf-8")
        assert text == reference_spectrum_text(spectrum)
        assert '"delta_t_s": 2.0,' in text and "np.float64" not in text

    def test_numpy_integer_grid_n(self, tmp_path):
        grid = GridSpec(np.int64(2), 1.0, 2.0)
        assert (type(grid.n), type(grid.delta_t), type(grid.f_s)) == (int, float, float)
        spectrum = Spectrum(grid, [1.5, -0.25])
        path = tmp_path / "spectrum.json"
        write_spectrum(path, spectrum)
        assert path.read_text(encoding="utf-8") == reference_spectrum_text(spectrum)
        back = read_spectrum(path)
        assert back.grid == grid and np.array_equal(back.coefficients, [1.5, -0.25])

    def test_matches_json_dumps_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK", 3)
        for n in (1, 3, 7):
            spectrum = random_spectrum(n, seed=n)
            path = tmp_path / f"spectrum{n}.json"
            write_spectrum(path, spectrum)
            assert path.read_text(encoding="utf-8") == reference_spectrum_text(spectrum)
            assert np.array_equal(read_spectrum(path).coefficients, spectrum.coefficients)

    def test_series_and_plotdata_match_line_formulas(self, tmp_path, monkeypatch):
        spectrum = random_spectrum(10)
        freqs, coeffs = spectrum.frequencies, spectrum.coefficients
        for block in (3, fileio._BLOCK):
            monkeypatch.setattr(fileio, "_BLOCK", block)
            monkeypatch.setattr(_floattext, "_BLOCK", block)
            write_series_values(tmp_path / "s.csv", coeffs)
            assert (tmp_path / "s.csv").read_text() == "".join(
                f"{float(c)!r}\n" for c in coeffs)
            write_plotdata(tmp_path / "p.csv", spectrum)
            assert (tmp_path / "p.csv").read_text() == "".join(
                f"{float(f)!r},{float(c)!r}\n" for f, c in zip(freqs, coeffs))


class TestSpectrumRecordFaults:
    """read_spectrum checks records as columns but names the first bad record."""

    def _doc(self):
        return json.loads(reference_spectrum_text(sample_spectrum()))

    def _read(self, tmp_path, text):
        path = tmp_path / "spectrum.json"
        path.write_text(text)
        with pytest.raises(FileFormatError) as err:
            read_spectrum(path)
        assert str(err.value).startswith(f"{path}: ")
        return str(err.value)[len(f"{path}: "):]

    def _read_doc(self, tmp_path, mutate):
        doc = self._doc()
        mutate(doc)
        return self._read(tmp_path, json.dumps(doc))

    def _set(self, pos, key, value):
        def mutate(doc):
            doc["dyads"][pos][key] = value
        return mutate

    def test_record_not_an_object(self, tmp_path):
        message = self._read_doc(tmp_path, lambda d: d["dyads"].__setitem__(2, [3, 0.3, 1.0]))
        assert message == "dyad record 3 must be an object"

    def test_record_missing_c(self, tmp_path):
        message = self._read_doc(tmp_path, lambda d: d["dyads"][4].pop("c"))
        assert message == "dyad record 5 missing field 'c'"

    def test_index_true(self, tmp_path):
        message = self._read_doc(tmp_path, self._set(0, "i", True))
        assert message == "dyad indices must ascend 1..8; record 1 has i=True"

    def test_index_float(self, tmp_path):
        message = self._read_doc(tmp_path, self._set(1, "i", 2.0))
        assert message == "dyad indices must ascend 1..8; record 2 has i=2.0"

    def test_coefficient_string(self, tmp_path):
        message = self._read_doc(tmp_path, self._set(3, "c", "1"))
        assert message == "dyad 4: c must be a finite number, got '1'"

    def test_coefficient_bool(self, tmp_path):
        message = self._read_doc(tmp_path, self._set(3, "c", False))
        assert message == "dyad 4: c must be a finite number, got False"

    @pytest.mark.parametrize("literal,shown", [("NaN", "nan"), ("Infinity", "inf"),
                                               ("-Infinity", "-inf")])
    def test_non_finite_frequency(self, tmp_path, literal, shown):
        text = reference_spectrum_text(sample_spectrum()).replace(
            '"f_hz": 0.4,', f'"f_hz": {literal},')
        assert self._read(tmp_path, text) == f"dyad 4: f_hz must be a finite number, got {shown}"

    @pytest.mark.parametrize("literal,shown", [("NaN", "nan"), ("-Infinity", "-inf")])
    def test_non_finite_coefficient(self, tmp_path, literal, shown):
        text = reference_spectrum_text(sample_spectrum()).replace(
            '"c": 118.0', f'"c": {literal}')
        assert self._read(tmp_path, text) == f"dyad 8: c must be a finite number, got {shown}"

    def test_oversized_coefficient_literal(self, tmp_path):
        text = reference_spectrum_text(sample_spectrum()).replace(
            '"c": -38.5,', '"c": 1' + "0" * 399 + ",")
        assert self._read(tmp_path, text) == (
            "dyad 2: c must be a finite number, got an integer of 400 digits")

    def test_oversized_frequency_literal(self, tmp_path):
        text = reference_spectrum_text(sample_spectrum()).replace(
            '"f_hz": 0.4,', '"f_hz": -1' + "0" * 399 + ",")
        assert self._read(tmp_path, text) == (
            "dyad 4: f_hz must be a finite number, got an integer of 400 digits")

    def test_oversized_delta_t_literal(self, tmp_path):
        text = reference_spectrum_text(sample_spectrum()).replace(
            '"delta_t_s": 2.0,', '"delta_t_s": 1' + "0" * 399 + ",")
        assert self._read(tmp_path, text) == (
            "delta_t_s must be a positive finite number, got an integer of 400 digits")

    def test_oversized_n_literal(self, tmp_path):
        text = reference_spectrum_text(sample_spectrum()).replace(
            '"n": 8,', '"n": 1' + "0" * 399 + ",")
        assert self._read(tmp_path, text) == (
            "n must be a positive integer, got an integer of 400 digits")

    def test_integer_literal_beyond_parser_limit(self, tmp_path):
        text = reference_spectrum_text(sample_spectrum()).replace(
            '"c": -38.5,', '"c": 1' + "0" * 5000 + ",")
        assert self._read(tmp_path, text).startswith("not valid JSON: ")

    def test_in_range_integers_accepted(self, tmp_path):
        doc = self._doc()
        doc["dyads"][1]["c"] = 2**70
        doc["dyads"][7]["c"] = -3
        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps(doc))
        coeffs = read_spectrum(path).coefficients
        assert coeffs[1] == float(2**70) and coeffs[7] == -3.0

    def test_first_bad_record_named(self, tmp_path):
        def two_faults(doc):
            doc["dyads"][5]["c"] = None
            doc["dyads"][2]["f_hz"] *= 1.01
        message = self._read_doc(tmp_path, two_faults)
        assert re.fullmatch(r"dyad 3: frequency \S+ does not match the grid \(expected \S+\)",
                            message)

    def test_first_failed_check_of_a_record_named(self, tmp_path):
        def two_faults(doc):
            doc["dyads"][2]["f_hz"] = "x"
            doc["dyads"][2]["c"] = "y"
        assert self._read_doc(tmp_path, two_faults) == (
            "dyad 3: f_hz must be a finite number, got 'x'")

    @pytest.mark.parametrize("pos", [0, 2, 3, 7])
    def test_fault_in_a_later_block_named(self, tmp_path, monkeypatch, pos):
        monkeypatch.setattr(fileio, "_BLOCK", 3)
        message = self._read_doc(tmp_path, self._set(pos, "c", None))
        assert message == f"dyad {pos + 1}: c must be a finite number, got None"


class TestPlotData:
    def test_rows(self, tmp_path):
        path = tmp_path / "plot.csv"
        spectrum = sample_spectrum()
        write_plotdata(path, spectrum)
        rows = path.read_text().splitlines()
        assert len(rows) == 8
        f0, c0 = rows[0].split(",")
        assert float(f0) == 0.25 and float(c0) == 170.5

    def test_single_dyad(self, tmp_path):
        path = tmp_path / "plot.csv"
        write_plotdata(path, Spectrum(GridSpec.from_duration(1, 5.0), [7.5]))
        assert path.read_text() == "0.1,7.5\n"


class TestReportFile:
    def test_non_finite_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "report.json", ReconstructionReport(1.0, 1, float("inf")))

    def test_fields(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, ReconstructionReport(1.5e-10, 17, 3.25e-11))
        doc = json.loads(path.read_text())
        assert doc == {
            "max_abs_error": 1.5e-10,
            "index_of_max": 17,
            "rms_error": 3.25e-11,
        }


def test_format_dyad_display():
    assert format_dyad_display(0.25, 170.5) == "(0.250000; 170.500000)"
    assert format_dyad_display(2.0 / 7.0, -38.5) == "(0.285714; -38.500000)"
