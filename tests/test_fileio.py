import json
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("text,line,token", [
        ("1.0\n1_000\n", 2, "1_000"),
        ("2\n\u0661\u0662\n", 2, "\u0661\u0662"),
        ("1.0\f2.0\n", 1, "1.0\f2.0"),
        ("value\n1\v2\n", 2, "1\v2"),
        ("1\r\n2\x1c3\r\n", 2, "2\x1c3"),
        ("1\n2\x1d\n", 2, "2\x1d"),
        ("\x1e1\n", 1, "\x1e1"),
        ("1\n2\u00a0\n", 2, "2\u00a0"),
    ])
    def test_non_decimal_characters_rejected(self, tmp_path, text, line, token):
        # float() accepts underscores and non-ASCII digits or spaces, and
        # str.splitlines() splits at \f, \v and \x1c-\x1e
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            read_series_values(path)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: not a decimal number: {token!r}"

    @pytest.mark.parametrize("text", ["\ufeffvalue\r\n1.5\r\n-2\r\n", "1.5\r-2\r", " 1.5\t\n-2\n"])
    def test_line_endings_bom_and_blanks_around_tokens(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        assert np.array_equal(read_series_values(path), [1.5, -2.0])


def sample_spectrum():
    grid = GridSpec.from_duration(8, 2.0)
    coeffs = [170.5, -38.5, -100.5, -135.5, 195.0, -135.5, 10.5, 118.0]
    return Spectrum(grid, coeffs, "mV")


# A spectrum document in the compact layout goes straight to the document
# reader; in the canonical one, write_spectrum's, the block reader scans it
# first and falls back to the document reader at the first departure.
LAYOUTS = {
    "compact": lambda doc: json.dumps(doc),
    "canonical": lambda doc: json.dumps(doc, indent=2) + "\n",
}


def outcome(read, path):
    """What a reader makes of a file: the Spectrum's bits, or its error without the path."""
    try:
        spectrum = read(Path(path))
    except Exception as exc:  # any error, compared by type and text
        text = str(exc)
        return type(exc), text.removeprefix(f"{path}: ")
    return spectrum.grid, spectrum.unit, spectrum.coefficients.tobytes()


def write_layouts(tmp_path, doc) -> Path:
    """Write doc in both layouts, check that both read alike, return the compact file."""
    paths = {name: tmp_path / f"{name}.json" for name in LAYOUTS}
    for name, path in paths.items():
        path.write_text(LAYOUTS[name](doc))
    assert outcome(read_spectrum, paths["canonical"]) == outcome(read_spectrum, paths["compact"])
    return paths["compact"]


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
        return write_layouts(tmp_path, doc)

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
    """read_spectrum names the first bad record and its first failed check."""

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
        messages = {self._read(tmp_path, dump(doc)) for dump in LAYOUTS.values()}
        assert len(messages) == 1
        return messages.pop()

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
        coeffs = read_spectrum(write_layouts(tmp_path, doc)).coefficients
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
        monkeypatch.setattr(fileio, "_CHUNK", 256)
        message = self._read_doc(tmp_path, self._set(pos, "c", None))
        assert message == f"dyad {pos + 1}: c must be a finite number, got None"

    @pytest.mark.parametrize("chunk", [256, 1 << 18])
    @pytest.mark.parametrize("pos", [5, 7])
    @pytest.mark.parametrize("key,value,message", [
        ("c", None, "dyad {i}: c must be a finite number, got None"),
        ("c", "1", "dyad {i}: c must be a finite number, got '1'"),
        ("c", False, "dyad {i}: c must be a finite number, got False"),
        ("c", 1e308 * 10, "dyad {i}: c must be a finite number, got inf"),
        ("f_hz", [1], "dyad {i}: f_hz must be a finite number, got [1]"),
        ("f_hz", 7.0, "dyad {i}: frequency 7.0 does not match the grid (expected {f})"),
        ("i", 1, "dyad indices must ascend 1..8; record {i} has i=1"),
        ("i", 66, "dyad indices must ascend 1..8; record {i} has i=66"),
        ("i", 88, "dyad indices must ascend 1..8; record {i} has i=88"),
    ])
    def test_fault_in_last_record_or_past_first_block(self, tmp_path, monkeypatch,
                                                       chunk, pos, key, value, message):
        monkeypatch.setattr(fileio, "_CHUNK", chunk)
        f = float(sample_spectrum().frequencies[pos])
        message = message.format(i=pos + 1, f=f)
        assert self._read_doc(tmp_path, self._set(pos, key, value)) == message


def _no_document_reader(path):
    raise AssertionError(f"{path} fell back to the document reader")


def departures():
    """Texts of the sample spectrum that depart from write_spectrum's layout, by name."""
    text = reference_spectrum_text(sample_spectrum())
    swapped = text.replace('"i": 3,\n      "f_hz": 0.3333333333333333,',
                           '"f_hz": 0.3333333333333333,\n      "i": 3,')
    assert swapped != text
    return {
        "bom": "\ufeff" + text,
        "crlf": text.replace("\n", "\r\n"),
        "keys swapped in one record": swapped,
        "escaped quote in display": text.replace("(0.250000;", '(0.25\\"0000;'),
        "letter in display": text.replace("(0.250000;", "(A.250000;"),
        "raw quote in display": text.replace("(0.250000;", '(0.25"0000;'),
        "control character in display": text.replace("(0.250000;", "(0.25\t0000;"),
        "trailing space": text + " ",
        "no final newline": text[:-1],
        "a number spelled with an exponent": text.replace('"c": 195.0,', '"c": 1.95e2,'),
        "blank lines for records": text[: text.index("    {")] + "\n" * 11 + "\n  ]\n}\n",
    }


DEPARTURES = departures()
NOT_JSON = {"raw quote in display", "control character in display", "blank lines for records"}


class TestCanonicalReader:
    """write_spectrum's layout is read in blocks; anything else as it was."""

    @pytest.mark.parametrize("chunk", [256, 1000, fileio._CHUNK])
    @pytest.mark.parametrize("n", [1, 2, 8, 100, 4000])
    def test_write_spectrum_output_read_in_blocks(self, tmp_path, monkeypatch, n, chunk):
        monkeypatch.setattr(fileio, "_CHUNK", chunk)
        monkeypatch.setattr(fileio, "_read_document", _no_document_reader)
        spectrum = random_spectrum(n, seed=n, unit="mV")
        path = tmp_path / "spectrum.json"
        write_spectrum(path, spectrum)
        loaded = read_spectrum(path)
        assert loaded.grid == spectrum.grid and loaded.unit == "mV"
        assert loaded.coefficients.tobytes() == spectrum.coefficients.tobytes()

    def test_display_longer_than_a_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_read_document", _no_document_reader)
        spectrum = Spectrum(GridSpec.from_sampling_rate(3, 10.0), [1e300, -1e30, 2.5])
        path = tmp_path / "spectrum.json"
        write_spectrum(path, spectrum)
        assert len(format_dyad_display(10.0 / 6, 1e300)) > fileio._WINDOW
        assert read_spectrum(path).coefficients.tobytes() == spectrum.coefficients.tobytes()

    @pytest.mark.parametrize("name", sorted(DEPARTURES))
    def test_departures_read_as_documents(self, tmp_path, name):
        path = tmp_path / "spectrum.json"
        path.write_bytes(DEPARTURES[name].encode("utf-8"))
        result = outcome(read_spectrum, path)
        assert result == outcome(fileio._read_document, path)
        if name not in NOT_JSON:
            spectrum = sample_spectrum()
            assert result == (spectrum.grid, "mV", spectrum.coefficients.tobytes())
        with path.open("rb") as file:
            in_blocks = fileio.read_canonical(file, str(path)) is not None
        assert in_blocks == (name == "a number spelled with an exponent")

    def test_pipe_read_once(self, tmp_path):
        fifo = tmp_path / "spectrum.fifo"
        os.mkfifo(fifo)
        text = reference_spectrum_text(sample_spectrum())
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        result = {}
        reader = threading.Thread(
            target=lambda: result.update(spectrum=read_spectrum(fifo)), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=20)
        writer.join(timeout=20)
        assert not reader.is_alive() and not writer.is_alive()
        assert np.array_equal(result["spectrum"].coefficients, sample_spectrum().coefficients)

    def test_read_in_bounded_memory(self, tmp_path):
        spectrum = random_spectrum(100_000)
        path = tmp_path / "spectrum.json"
        write_spectrum(path, spectrum)
        tracemalloc.start()
        try:
            loaded = read_spectrum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.coefficients.tobytes() == spectrum.coefficients.tobytes()
        assert peak < 8e6, f"read_spectrum peaked at {peak / 1e6:.1f} MB"


_EDIT_BYTES = b'0123456789.-+eE ,"{}[]:\n\\'
_TOKENS = re.compile(rb'(?<=: )-?[0-9][0-9.e+-]*')


@st.composite
def edited_spectrum(draw):
    """A canonical spectrum file with n <= 60 and one random edit."""
    spectrum = random_spectrum(draw(st.integers(1, 60)), seed=draw(st.integers(0, 2**32 - 1)),
                               unit="mV")
    text = reference_spectrum_text(spectrum).encode()
    kind = draw(st.sampled_from(["substitute", "insert", "delete", "token"]))
    if kind == "token":
        spans = [m.span() for m in _TOKENS.finditer(text)]
        start, stop = draw(st.sampled_from(spans))
        is_index = text[:start].endswith(b'"i": ')
        new = draw(st.sampled_from([b"NaN", b"1e999", b"01", b"+1", b"1.", b"true"]
                                   + [b"1.0"] * is_index))
        return text[:start] + new + text[stop:]
    pos = draw(st.integers(0, len(text) - 1))
    byte = bytes([draw(st.sampled_from(_EDIT_BYTES))])
    if kind == "substitute":
        return text[:pos] + byte + text[pos + 1:]
    if kind == "insert":
        return text[:pos] + byte + text[pos:]
    return text[:pos] + text[pos + 1:]


@settings(max_examples=400, deadline=None)
@given(edited_spectrum(), st.sampled_from([256, 700, None]))
def test_block_reader_agrees_with_document_reader(text, chunk):
    saved = fileio._CHUNK
    fileio._CHUNK = chunk or saved
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spectrum.json"
            path.write_bytes(text)
            assert outcome(read_spectrum, path) == outcome(fileio._read_document, path)
    finally:
        fileio._CHUNK = saved


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


class TestWriteFailures:
    """Every writer reports a path it cannot write as a FileFormatError naming it."""

    WRITERS = {
        "series": lambda path: write_series_values(path, [1.5, -2.0]),
        "spectrum": lambda path: write_spectrum(path, sample_spectrum()),
        "plot data": lambda path: write_plotdata(path, sample_spectrum()),
        "report": lambda path: write_report(path, ReconstructionReport(1.5e-10, 17, 3.25e-11)),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_missing_directory(self, tmp_path, writer):
        path = tmp_path / "missing" / "out"
        with pytest.raises(FileFormatError) as err:
            self.WRITERS[writer](path)
        assert str(err.value) == f"{path}: cannot write file: No such file or directory"
        assert err.value.path == str(path) and isinstance(err.value.__cause__, OSError)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_directory(self, tmp_path, writer):
        with pytest.raises(FileFormatError, match="cannot write file: Is a directory"):
            self.WRITERS[writer](tmp_path)


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
