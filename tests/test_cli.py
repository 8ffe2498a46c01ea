import gc
import hashlib
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from sqwt.cli import main
from sqwt.fileio import read_series_values, read_spectrum, write_series_values, write_spectrum
from sqwt import FileFormatError, GridSpec, Spectrum

from oracles import golden_10000

PAPER_VALUES = [84.0, -152.0, 63.0, 98.0, -35.0, 0.0, 145.0, -14.0]


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "sqwt", *args],
        capture_output=True, text=True, env=full_env,
    )


def child_stdout(code: str) -> str:
    """The last line a fresh `python -c code` process prints; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.csv"
    write_series_values(path, PAPER_VALUES)
    return path


class TestAnalyze:
    def test_paper_series(self, tmp_path, paper_file):
        out = tmp_path / "spectrum.json"
        report = tmp_path / "report.json"
        code = main(["analyze", str(paper_file), "--delta-t", "2",
                     "--out", str(out), "--report", str(report), "--unit", "mV"])
        assert code == 0
        doc = json.loads(out.read_text())
        first = doc["dyads"][0]
        assert (first["i"], first["f_hz"], first["c"]) == (1, 0.25, 170.5)
        assert first["display"] == "(0.250000; 170.500000)"
        assert doc["unit"] == "mV"
        rep = json.loads(report.read_text())
        assert rep["max_abs_error"] <= 1e-10

    def test_fs_flag_equivalent(self, tmp_path, paper_file):
        out = tmp_path / "spectrum.json"
        assert main(["analyze", str(paper_file), "--fs", "4", "--out", str(out)]) == 0
        assert read_spectrum(out).grid == GridSpec(8, 2.0, 4.0)
        # the same grid given by its duration, 1,000 values over 0.5 s, gives the same bytes
        series = tmp_path / "series.csv"
        assert main(["generate", "--seed", "42", "--n", "1000", "--fs", "2000",
                     "--out", str(series)]) == 0
        outputs = {}
        for flag, value in (("--fs", "2000"), ("--delta-t", "0.5")):
            spectrum, report = tmp_path / f"{flag}.json", tmp_path / f"{flag}.report.json"
            assert main(["analyze", str(series), flag, value,
                         "--out", str(spectrum), "--report", str(report)]) == 0
            outputs[flag] = (spectrum.read_bytes(), report.read_bytes())
        assert outputs["--delta-t"] == outputs["--fs"]

    def test_analyze_prints_the_correction_line(self, tmp_path, paper_file, capsys):
        assert main(["analyze", str(paper_file), "--fs", "4",
                     "--out", str(tmp_path / "s.json")]) == 0
        solve_line = capsys.readouterr().out.splitlines()[1]
        assert solve_line.startswith("solve: correction_inf=")
        assert "min_pivot" not in solve_line

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = run_cli("analyze", str(empty), "--delta-t", "2",
                         "--out", str(tmp_path / "s.json"))
        assert result.returncode == 2
        assert "empty.csv" in result.stderr

    def test_bad_token_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nwhat\n")
        code = main(["analyze", str(bad), "--delta-t", "2",
                     "--out", str(tmp_path / "s.json")])
        assert code == 2

    @pytest.mark.parametrize("out,report,error", [
        ("s.json", "./s.json", "error: --out and --report name the same file: ./s.json\n"),
        (os.devnull, os.devnull, ""),
    ], ids=["same file", "null device"])
    def test_same_out_and_report(self, tmp_path, paper_file, monkeypatch, capsys,
                                 out, report, error):
        monkeypatch.chdir(tmp_path)
        code = main(["analyze", str(paper_file), "--fs", "4", "--out", out, "--report", report])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2 if error else 0, error)
        assert ("wrote" in captured.out) == (not error)
        assert not (tmp_path / "s.json").exists()

    def test_hard_linked_out_and_report(self, tmp_path, paper_file, capsys):
        out, link = tmp_path / "s.json", tmp_path / "h.json"
        assert main(["analyze", str(paper_file), "--fs", "4", "--out", str(out)]) == 0
        before = out.read_bytes()
        os.link(out, link)
        capsys.readouterr()
        code = main(["analyze", str(paper_file), "--fs", "4",
                     "--out", str(out), "--report", str(link)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (
            2, f"error: --out and --report name the same file: {link}\n")
        assert "wrote" not in captured.out
        assert out.read_bytes() == before

    @pytest.mark.parametrize("command", ["analyze", "reconstruct"])
    def test_non_utf8_input_exit_2_naming_the_file(self, tmp_path, command):
        if command == "analyze":
            path = tmp_path / "series.csv"
            path.write_bytes(b"1.5\n\xff\n")
            args = ["analyze", str(path), "--fs", "2"]
        else:
            path = tmp_path / "spectrum.json"
            write_spectrum(path, Spectrum(GridSpec(8, 2.0, 4.0), PAPER_VALUES))
            data = path.read_bytes()
            at = data.index(b'"c": ', data.index(b'"i": 5,')) + len(b'"c": ')
            path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
            args = ["reconstruct", str(path)]
        result = run_cli(*args, "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {path}: not UTF-8 text: invalid start byte")
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_requires_exactly_one_grid_flag(self, tmp_path, paper_file):
        out = str(tmp_path / "s.json")
        result = run_cli("analyze", str(paper_file), "--out", out)
        assert result.returncode == 2
        result = run_cli("analyze", str(paper_file), "--delta-t", "2", "--fs", "4",
                         "--out", out)
        assert result.returncode == 2

    def test_overflowing_rate_names_delta_t(self, tmp_path, paper_file):
        out = tmp_path / "s.json"
        result = run_cli("analyze", str(paper_file), "--delta-t", "1e-320", "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == (
            "error: delta_t = 1e-320 is too small for n = 8: n / delta_t overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        ("analyze", ["--fs", "0"], "f_s must be a positive real, got 0.0"),
        ("analyze", ["--fs", "nan"], "f_s must be a positive real, got nan"),
        ("analyze", ["--fs", "inf"], "f_s must be a positive real, got inf"),
        ("analyze", ["--delta-t", "-1"], "delta_t must be a positive real, got -1.0"),
        ("generate", ["--seed", "1", "--n", "10", "--fs", "1e-320"],
         "f_s = 1e-320 is too small for n = 10: n / f_s overflows"),
    ])
    def test_bad_grid_flag_exit_2(self, tmp_path, paper_file, command, flags, message):
        out, report = tmp_path / "out", tmp_path / "report.json"
        inputs = [str(paper_file)] if command == "analyze" else []
        outputs = ["--report", str(report)] if command == "analyze" else []
        result = run_cli(command, *inputs, *flags, "--out", str(out), *outputs)
        assert (result.returncode, result.stderr) == (2, f"error: {message}\n")
        assert not out.exists() and not report.exists()

    def test_above_former_dense_cap_exit_0(self, tmp_path):
        # n = 20,000 was refused with exit 4; the removed SQWT_MAX_N_DENSE
        # variable is set to show that it is ignored
        series = tmp_path / "series.csv"
        write_series_values(series, np.random.default_rng(4).uniform(-100, 100, 20_000))
        result = run_cli("analyze", str(series), "--fs", "2000",
                         "--out", str(tmp_path / "s.json"),
                         env={"SQWT_MAX_N_DENSE": "16"})
        assert result.returncode == 0, result.stderr
        assert read_spectrum(tmp_path / "s.json").n == 20_000


class TestOverflow:
    def _series(self, tmp_path, values):
        path = tmp_path / "huge.csv"
        write_series_values(path, values)
        return path

    def test_huge_series_report_is_strict_json(self, tmp_path):
        values = np.random.default_rng(3).choice([-1.0, 1.0], 10) * 1e307
        report = tmp_path / "report.json"
        result = run_cli("analyze", str(self._series(tmp_path, values)), "--fs", "10",
                         "--out", str(tmp_path / "s.json"), "--report", str(report))
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr

        def refuse(literal):
            raise AssertionError(f"{literal} in report")

        doc = json.loads(report.read_text(), parse_constant=refuse)
        assert np.isfinite(doc["rms_error"]) and doc["rms_error"] <= doc["max_abs_error"]

    def test_coefficient_overflow_exit_2(self, tmp_path):
        values = np.random.default_rng(3).uniform(-1.0, 1.0, 200) * 1.7e308
        result = run_cli("analyze", str(self._series(tmp_path, values)), "--fs", "10",
                         "--out", str(tmp_path / "s.json"))
        assert result.returncode == 2
        assert "coefficients overflow float64" in result.stderr
        assert "Warning" not in result.stderr and "non-finite" not in result.stderr

    def test_reconstruction_overflow_exit_2(self, tmp_path):
        spectrum = tmp_path / "s.json"
        write_spectrum(spectrum, Spectrum(GridSpec.from_duration(4, 1.0), [1e308] * 4))
        result = run_cli("reconstruct", str(spectrum), "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "product overflows float64" in result.stderr
        assert "Warning" not in result.stderr

    def test_oversized_literal_in_spectrum_exit_2(self, tmp_path):
        spectrum = tmp_path / "s.json"
        write_spectrum(spectrum, Spectrum(GridSpec.from_duration(2, 1.0), [1.5, 2.5]))
        spectrum.write_text(spectrum.read_text().replace('"c": 2.5', '"c": 1' + "0" * 399))
        result = run_cli("reconstruct", str(spectrum), "--out", str(tmp_path / "o.csv"))
        assert result.returncode == 2
        assert "dyad 2: c must be a finite number" in result.stderr
        assert "Traceback" not in result.stderr


class TestReconstruct:
    def test_paper_round_trip(self, tmp_path, paper_file):
        spectrum_path = tmp_path / "spectrum.json"
        series_path = tmp_path / "series_out.csv"
        assert main(["analyze", str(paper_file), "--delta-t", "2",
                     "--out", str(spectrum_path)]) == 0
        assert main(["reconstruct", str(spectrum_path), "--out", str(series_path)]) == 0
        values = read_series_values(series_path)
        assert np.allclose(values, PAPER_VALUES, rtol=0, atol=1e-9)

    def test_single_dyad(self, tmp_path):
        spectrum_path = tmp_path / "one.json"
        write_spectrum(spectrum_path, Spectrum(GridSpec.from_duration(1, 5.0), [12.25]))
        out = tmp_path / "one.csv"
        assert main(["reconstruct", str(spectrum_path), "--out", str(out)]) == 0
        assert out.read_text() == "12.25\n"

    def test_malformed_spectrum_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["reconstruct", str(bad), "--out", str(tmp_path / "o.csv")]) == 2


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--seed", "42", "--n", "64", "--fs", "2000",
                     "--out", str(a)]) == 0
        assert main(["generate", "--seed", "42", "--n", "64", "--fs", "2000",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_range_and_line_count(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main(["generate", "--seed", "7", "--n", "500", "--fs", "100",
                     "--out", str(out)]) == 0
        values = read_series_values(out)
        assert len(values) == 500
        assert np.all(np.abs(values) <= 99.99999)

    def test_prints_implied_delta_t(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        main(["generate", "--seed", "1", "--n", "100", "--fs", "20", "--out", str(out)])
        assert "delta_t=5.0" in capsys.readouterr().out

    def test_n_zero_exit_2(self, tmp_path):
        assert main(["generate", "--seed", "1", "--n", "0", "--fs", "10",
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_n_zero_message(self, tmp_path, capsys):
        main(["generate", "--seed", "1", "--n", "0", "--fs", "10",
              "--out", str(tmp_path / "o.csv")])
        assert capsys.readouterr().err == "error: n must be a positive integer, got 0\n"
        assert not (tmp_path / "o.csv").exists()

    def test_n_past_float_range_named(self, tmp_path):
        out = tmp_path / "x.csv"
        result = run_cli("generate", "--seed", "1", "--n", "1" + "0" * 400, "--fs", "2",
                         "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == (
            "error: n must be a positive integer, got an integer of 401 digits\n")
        assert not out.exists()

    def test_bad_seed_exit_2(self, tmp_path):
        assert main(["generate", "--seed", "-3", "--n", "4", "--fs", "10",
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestRemovedBench:
    def test_bench_is_no_longer_a_command(self):
        result = run_cli("bench", "--sizes", "4")
        assert result.returncode == 2
        assert "invalid choice: 'bench'" in result.stderr

    def test_help_lists_only_the_pipeline_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: sqwt [-h] {analyze,reconstruct,generate,spectrum-plotdata} ..."


class TestSpectrumPlotdata:
    def test_rows_match_n(self, tmp_path, paper_file):
        spectrum_path = tmp_path / "spectrum.json"
        main(["analyze", str(paper_file), "--delta-t", "2", "--out", str(spectrum_path)])
        out = tmp_path / "plot.csv"
        assert main(["spectrum-plotdata", str(spectrum_path), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 8
        f0, c0 = map(float, rows[0].split(","))
        assert (f0, c0) == (0.25, 170.5)

    def test_malformed_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1,2,3]")
        assert main(["spectrum-plotdata", str(bad), "--out", str(tmp_path / "p.csv")]) == 2

    @pytest.mark.parametrize("text", ["[" * 100_000,
                                      '{"n": 1, "x": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                             ids=["brackets", "nested field"])
    def test_deep_nesting_not_valid_json(self, tmp_path, text):
        # json.loads raises RecursionError, not ValueError, past the recursion limit
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        with pytest.raises(FileFormatError) as err:
            read_spectrum(deep)
        assert str(err.value).startswith(f"{deep}: not valid JSON: ")
        for command in ("spectrum-plotdata", "reconstruct"):
            result = run_cli(command, str(deep), "--out", str(tmp_path / "out.csv"))
            assert result.returncode == 2, result.stderr
            assert "Traceback" not in result.stderr
            assert result.stderr.startswith(f"error: {deep}: not valid JSON: ")


class TestEndToEnd:
    def test_generate_analyze_reconstruct_round_trip(self, tmp_path):
        series_path = tmp_path / "gen.csv"
        spectrum_path = tmp_path / "spec.json"
        back_path = tmp_path / "back.csv"
        assert main(["generate", "--seed", "20240811", "--n", "128", "--fs", "2000",
                     "--out", str(series_path)]) == 0
        assert main(["analyze", str(series_path), "--fs", "2000",
                     "--out", str(spectrum_path)]) == 0
        assert main(["reconstruct", str(spectrum_path), "--out", str(back_path)]) == 0
        original = read_series_values(series_path)
        back = read_series_values(back_path)
        assert np.max(np.abs(original - back)) <= 1e-9

    @staticmethod
    def paper_pipeline(d: Path) -> None:
        """The paper's file pipeline on its 10,000-value series, in directory d."""
        for args in (
            ["generate", "--seed", "42", "--n", "10000", "--fs", "2000", "--out", d / "series.csv"],
            ["analyze", d / "series.csv", "--fs", "2000", "--out", d / "spectrum.json",
             "--report", d / "report.json"],
            ["reconstruct", d / "spectrum.json", "--out", d / "rebuilt.csv"],
            ["spectrum-plotdata", d / "spectrum.json", "--out", d / "plotdata.csv"],
        ):
            assert main([str(arg) for arg in args]) == 0

    def test_paper_pipeline_bytes_pinned(self, tmp_path):
        # correctly rounded coefficients and products fix these bytes on every platform
        self.paper_pipeline(tmp_path)
        golden = golden_10000()
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in golden} == golden
        # rms_error goes through numpy's pairwise mean, so the report's bytes are not pinned
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["max_abs_error"] == 1.000444171950221e-11
        assert report["index_of_max"] == 8161

    def test_every_output_opened_binary(self, tmp_path, monkeypatch):
        # a file opened in text mode would write os.linesep for each "\n" it is given
        opened = []
        path_open = Path.open

        def recording_open(path, mode="r", *args, **kwargs):
            opened.append((path.name, mode))
            return path_open(path, mode, *args, **kwargs)
        monkeypatch.setattr(Path, "open", recording_open)
        self.paper_pipeline(tmp_path)
        assert [name for name, mode in opened if "r" not in mode] == [
            "series.csv", "report.json", "spectrum.json", "rebuilt.csv", "plotdata.csv"]
        assert all("b" in mode for _, mode in opened), opened

    @pytest.mark.parametrize("command", ["analyze", "reconstruct", "generate", "spectrum-plotdata"])
    def test_threads_flag_refused(self, tmp_path, paper_file, command):
        spectrum = tmp_path / "spectrum.json"
        write_spectrum(spectrum, Spectrum(GridSpec(8, 2.0, 4.0), PAPER_VALUES))
        out = tmp_path / "out"
        args = {
            "analyze": ["analyze", str(paper_file), "--fs", "4"],
            "reconstruct": ["reconstruct", str(spectrum)],
            "generate": ["generate", "--seed", "1", "--n", "10", "--fs", "10"],
            "spectrum-plotdata": ["spectrum-plotdata", str(spectrum)],
        }[command]
        result = run_cli(*args, "--out", str(out), "--threads", "1")
        assert result.returncode == 2
        assert "unrecognized arguments: --threads 1" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert not out.exists()


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with a message naming it, not a traceback."""

    @pytest.fixture
    def inputs(self, tmp_path):
        series = tmp_path / "series.csv"
        spectrum = tmp_path / "spectrum.json"
        write_series_values(series, PAPER_VALUES)
        write_spectrum(spectrum, Spectrum(GridSpec(8, 2.0, 4.0), PAPER_VALUES))
        return series, spectrum

    @pytest.mark.parametrize("kind", ["missing directory", "directory"])
    @pytest.mark.parametrize("command", [
        "analyze --out", "analyze --report", "reconstruct", "generate", "spectrum-plotdata",
    ])
    def test_exit_2_naming_the_path(self, tmp_path, inputs, command, kind):
        series, spectrum = inputs
        target = str(tmp_path / "missing" / "out" if kind == "missing directory" else tmp_path)
        args = {
            "analyze --out": ["analyze", str(series), "--fs", "4", "--out", target],
            "analyze --report": ["analyze", str(series), "--fs", "4",
                                 "--out", str(tmp_path / "s.json"), "--report", target],
            "reconstruct": ["reconstruct", str(spectrum), "--out", target],
            "generate": ["generate", "--seed", "1", "--n", "10", "--fs", "10",
                         "--out", target],
            "spectrum-plotdata": ["spectrum-plotdata", str(spectrum), "--out", target],
        }[command]
        result = run_cli(*args)
        assert result.returncode == 2
        assert f"error: {target}: cannot write file: " in result.stderr
        assert "Traceback" not in result.stderr
        if command == "analyze --report":
            assert not (tmp_path / "s.json").exists()
            assert "wrote" not in result.stdout

    @pytest.mark.parametrize("kind", ["missing directory", "directory"])
    def test_failed_report_never_opens_out(self, tmp_path, inputs, monkeypatch, capsys, kind):
        calls = []

        def recording_write_spectrum(path, spectrum):
            calls.append(path)
            write_spectrum(path, spectrum)

        monkeypatch.setattr("sqwt.fileio.write_spectrum", recording_write_spectrum)
        out = tmp_path / "old.json"
        out.write_bytes(inputs[1].read_bytes())
        target = str(tmp_path / "missing" / "r.json" if kind == "missing directory" else tmp_path)
        code = main(["analyze", str(inputs[0]), "--fs", "4",
                     "--out", str(out), "--report", target])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {target}: cannot write file: " in captured.err
        assert "wrote" not in captured.out
        assert calls == []
        assert out.read_bytes() == inputs[1].read_bytes()

    def test_failed_out_keeps_the_written_report(self, tmp_path, inputs, capsys):
        series = str(inputs[0])
        assert main(["analyze", series, "--fs", "4", "--out", str(tmp_path / "ok.json"),
                     "--report", str(tmp_path / "expected.json")]) == 0
        capsys.readouterr()
        target = str(tmp_path / "missing" / "s.json")
        report = tmp_path / "r.json"
        code = main(["analyze", series, "--fs", "4", "--out", target, "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {target}: cannot write file: " in captured.err
        assert "wrote" not in captured.out
        assert report.read_bytes() == (tmp_path / "expected.json").read_bytes()

    @pytest.mark.parametrize("target", ["read-only", "/dev/full"])
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_unwritable_stdout_exit_2(self, tmp_path, unbuffered, target):
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full on this platform")
        readonly = tmp_path / "stdout.txt"
        readonly.write_text("")
        out = tmp_path / "g.csv"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        # writes to the read-only file fail with EBADF, to /dev/full with ENOSPC
        opened = readonly.open("rb") if target == "read-only" else open(target, "wb")
        with opened as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "sqwt", "generate", "--seed", "1", "--n", "10",
                 "--fs", "10", "--out", str(out)],
                stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert result.returncode == 2
        assert result.stderr.startswith("error: stdout: cannot write: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
        assert len(read_series_values(out)) == 10
        assert readonly.read_text() == ""


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class TestStartup:
    """The CLI loads numpy only when a command runs, with a one-thread BLAS by default."""

    @pytest.mark.parametrize("statement", ["import sqwt", "import sqwt.cli"])
    def test_import_loads_no_numpy(self, statement):
        assert child_stdout(f"import sys; {statement}; print('numpy' in sys.modules)") == "False"

    def test_public_annotations_resolve_in_a_fresh_process(self):
        """The solver's names are plain globals of `sqwt.transform` from its import on."""
        code = ("import typing, sqwt.transform; "
                "unbound = [name for name in ('SolveReport', 'apply_sign_matrix', 'solve') "
                "if name not in vars(sqwt.transform)]; "
                "import sqwt; [typing.get_type_hints(getattr(sqwt, name)) for name in sqwt.__all__]; "
                "print(unbound)")
        assert child_stdout(code) == "[]"

    def test_public_names_resolve_and_are_listed(self):
        import sqwt

        assert sqwt.__all__ == [
            "DimensionMismatch", "FileFormatError", "GeneratedSeries",
            "GridSpec", "ReconstructionReport", "SignPattern", "SolveReport",
            "Spectrum", "SquareWaveError", "TimeSeries", "apply_sign_matrix",
            "forward", "generate", "inverse", "reconstruction_report", "sign_at",
            "solve", "train_frequency",
        ]
        for name in sqwt.__all__:
            value = getattr(sqwt, name)
            assert getattr(import_module(value.__module__), name) is value
        assert set(sqwt.__all__) <= set(dir(sqwt))
        for name in ("no_such_name", "DigitStream", "next_value", "TrainDescriptor",
                     "half_wave_length", "sample_train"):
            with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
                getattr(sqwt, name)

    def child_blas_vars(self, tmp_path, **user_set) -> dict:
        """The BLAS thread variables a `python -m sqwt` child holds when it exits."""
        site = tmp_path / "site"
        site.mkdir()
        log = tmp_path / "blas_vars.json"
        (site / "sitecustomize.py").write_text(
            "import atexit, json, os\n"
            f"atexit.register(lambda: open({str(log)!r}, 'w').write(json.dumps("
            f"{{v: os.environ.get(v) for v in {BLAS_VARS!r}}})))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(user_set)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sqwt", "generate", "--seed", "1", "--n", "3",
             "--fs", "1", "--out", str(tmp_path / "g.csv")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(log.read_text())

    def test_child_defaults_to_one_blas_thread(self, tmp_path):
        assert self.child_blas_vars(tmp_path) == dict.fromkeys(BLAS_VARS, "1")

    @pytest.mark.parametrize("var", BLAS_VARS)
    def test_child_keeps_a_value_the_user_set(self, tmp_path, var):
        expected = dict.fromkeys(BLAS_VARS)
        expected[var] = "3"
        assert self.child_blas_vars(tmp_path, **{var: "3"}) == expected

    def test_in_process_main_leaves_environment_alone(self, tmp_path, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        assert main(["generate", "--seed", "1", "--n", "3", "--fs", "1",
                     "--out", str(tmp_path / "g.csv")]) == 0
        assert dict(os.environ) == before


def pipeline_argvs(d: Path, n: int) -> dict[str, list[str]]:
    """The argv of each command, one pipeline of n generated values in directory d."""
    series, spectrum = str(d / f"s{n}.csv"), str(d / f"sp{n}.json")
    return {
        "generate": ["generate", "--seed", "3", "--n", str(n), "--fs", "2", "--out", series],
        "analyze": ["analyze", series, "--fs", "2", "--out", spectrum,
                    "--report", str(d / f"r{n}.json")],
        "reconstruct": ["reconstruct", spectrum, "--out", str(d / f"b{n}.csv")],
        "spectrum-plotdata": ["spectrum-plotdata", spectrum, "--out", str(d / f"p{n}.csv")],
    }


class TestProcessEntry:
    """A process entry runs with the collector off and freezes the heap before it exits.

    That is safe because the cyclic garbage a command leaves does not grow
    with the input; `main(argv)` in-process leaves the collector alone.
    """

    @staticmethod
    def garbage_after(argv) -> int:
        """Cyclic objects one in-process command leaves, counted with the collector off."""
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            return gc.collect()
        finally:
            gc.enable()

    def test_cyclic_garbage_does_not_grow_with_n(self, tmp_path, capsys):
        for argv in pipeline_argvs(tmp_path, 10).values():  # first imports
            assert main(argv) == 0
        small, large = ({name: self.garbage_after(argv)
                         for name, argv in pipeline_argvs(tmp_path, n).items()}
                        for n in (100, 20_000))
        assert small == large
        assert max(small.values()) < 1_000

    @pytest.mark.parametrize("enabled", [True, False])
    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, capsys, enabled):
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv in pipeline_argvs(tmp_path, 50).values():
                assert main(argv) == 0
                assert gc.isenabled() is enabled
                assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @staticmethod
    def child(argv) -> str:
        """stdout of a process entry that runs `argv` and then prints its state."""
        return child_stdout("import gc, sys; from sqwt.cli import main; "
                            f"sys.argv = ['sqwt', *{argv!r}]; code = main(); "
                            "print(code, 'numpy' in sys.modules, "
                            "gc.isenabled(), gc.get_freeze_count() > 0)")

    @pytest.mark.parametrize("command", ["generate", "spectrum-plotdata"])
    def test_child_that_does_not_solve_runs_with_the_collector_off(self, tmp_path, command):
        argvs = pipeline_argvs(tmp_path, 30)
        write_spectrum(tmp_path / "sp30.json",
                       Spectrum(GridSpec.from_sampling_rate(30, 2.0), np.arange(30.0)))
        assert self.child(argvs[command]) == "0 True False True"

    def test_child_runs_with_the_collector_off_and_a_frozen_heap(self, tmp_path):
        argvs = pipeline_argvs(tmp_path, 30)
        write_series_values(tmp_path / "s30.csv", np.linspace(-1.0, 1.0, 30))
        assert self.child(argvs["analyze"]) == "0 True False True"
