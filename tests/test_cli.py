import json
import os
import subprocess
import sys
from importlib import import_module

import numpy as np
import pytest

from sqwt.cli import main
from sqwt.fileio import read_series_values, read_spectrum, write_series_values, write_spectrum
from sqwt import GridSpec, Spectrum

PAPER_VALUES = [84.0, -152.0, 63.0, 98.0, -35.0, 0.0, 145.0, -14.0]


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "sqwt", *args],
        capture_output=True, text=True, env=full_env,
    )


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

    def test_requires_exactly_one_grid_flag(self, tmp_path, paper_file):
        out = str(tmp_path / "s.json")
        result = run_cli("analyze", str(paper_file), "--out", out)
        assert result.returncode == 2
        result = run_cli("analyze", str(paper_file), "--delta-t", "2", "--fs", "4",
                         "--out", out)
        assert result.returncode == 2

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

    def test_bad_seed_exit_2(self, tmp_path):
        assert main(["generate", "--seed", "-3", "--n", "4", "--fs", "10",
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestBench:
    def test_small_sizes(self, capsys):
        assert main(["bench", "--sizes", "1,16"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 3  # header + two rows
        assert lines[1].lstrip().startswith("1")

    def test_residual_zero_for_n1(self, capsys):
        main(["bench", "--sizes", "1"])
        row = capsys.readouterr().out.splitlines()[1]
        assert "0.000e+00" in row

    def test_residuals_within_gate_at_larger_sizes(self, capsys):
        assert main(["bench", "--sizes", "256,1024"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        column = header.split().index("residual_inf")
        residuals = [float(row.split()[column]) for row in rows]
        assert all(r <= 1e-9 for r in residuals)

    def test_above_former_cap_exit_0(self, capsys):
        assert main(["bench", "--sizes", "20000"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "20000"

    def test_bad_sizes_exit_2(self):
        assert main(["bench", "--sizes", "16,frog"]) == 2
        assert main(["bench", "--sizes", "0"]) == 2

    def test_bad_repeats_exit_2(self):
        assert main(["bench", "--sizes", "4", "--repeats", "0"]) == 2


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

    def test_threads_flag_accepted(self, tmp_path, paper_file):
        out = tmp_path / "s.json"
        result = run_cli("analyze", str(paper_file), "--delta-t", "2",
                         "--out", str(out), "--threads", "1")
        assert result.returncode == 0

    def test_threads_must_be_positive(self, paper_file, tmp_path):
        result = run_cli("analyze", str(paper_file), "--delta-t", "2",
                         "--out", str(tmp_path / "s.json"), "--threads", "0")
        assert result.returncode == 2


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class TestStartup:
    """The CLI loads numpy only when a command runs, with a one-thread BLAS by default."""

    @pytest.mark.parametrize("statement", ["import sqwt", "import sqwt.cli"])
    def test_import_loads_no_numpy(self, statement):
        code = f"import sys; {statement}; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_public_names_resolve_and_are_listed(self):
        import sqwt

        assert sqwt.__all__ == [
            "DigitStream", "DimensionMismatch", "Dyad", "FileFormatError",
            "GeneratedSeries", "GridSpec", "ReconstructionReport", "SignPattern",
            "SolveReport", "Spectrum", "SquareWaveError", "TimeSeries",
            "TrainDescriptor", "apply_sign_matrix", "forward", "generate",
            "half_wave_length", "inverse", "next_value", "reconstruction_report",
            "sample_train", "sign_at", "solve", "train_frequency",
        ]
        for name in sqwt.__all__:
            value = getattr(sqwt, name)
            assert getattr(import_module(value.__module__), name) is value
        assert set(sqwt.__all__) <= set(dir(sqwt))
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            sqwt.no_such_name

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
