#!/usr/bin/env python3
"""Benchmark for sqwt: one workload per run, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve_mid --seed 1 --seconds 50 --trace 0

Workloads (see perfbench/README.md for why each exists):
  solve_mid    `sqwt analyze --report` then `sqwt reconstruct`, n = 4,000
  io_large     `sqwt generate` and `sqwt spectrum-plotdata`, n = 100,000
  batch_small  in-process forward / inverse / reconstruction_report over a
               few hundred series, n log-uniform in [8, 512]

The CLI runs as child processes (`python -m sqwt` with `src/` on the path),
one at a time, in a closed loop with one client. With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 a separate traced
pass runs the operations of all three workloads in-process and the last line
carries the per-layer metrics. The lines above it list every figure with its
unit, and a full record (environment fingerprint, spans) is written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_PARENT = ROOT / ".perfbench_work"

# README: a generated round trip must reproduce every sample to 1e-9
GATE = 1e-9
FS = inputs.FS_HZ
STARTUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.startup_s": "s",
    "random_series.generate_s": "s",
    "random_series.values_per_s": "1/s",
    "fileio.read_series_s": "s",
    "fileio.write_series_s": "s",
    "fileio.write_spectrum_s": "s",
    "fileio.read_spectrum_s": "s",
    "fileio.write_plotdata_s": "s",
    "fileio.series_bytes": "bytes",
    "fileio.spectrum_bytes": "bytes",
    "fileio.read_spectrum_peak_mb": "MB",
    "transform.forward_s": "s",
    "transform.forward.self_s": "s",
    "transform.inverse_s": "s",
    "transform.inverse.self_s": "s",
    "transform.report_s": "s",
    "linsolve.solve_s": "s",
    "linsolve.matvec_s": "s",
    "linsolve.matvec_calls": "count",
    "linsolve.solve_peak_mb": "MB",
    "linsolve.residual_inf": "abs",
    "linsolve.refine_steps": "count",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    solve_n: int = 4_000
    solve_series: int = 3
    io_n: int = 100_000
    io_files: int = 2
    batch_series: int = 300
    batch_n_max: int = 512
    setup_repeats: int = 5


FULL = Sizes()
SMOKE = Sizes(solve_n=64, solve_series=2, io_n=500, io_files=1,
              batch_series=24, batch_n_max=64)


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli(args, work: Path) -> tuple[float, float, int]:
    """Run `python -m sqwt ARGS` as a child: wall seconds, peak RSS (MB), exit code."""
    argv = [sys.executable, "-m", "sqwt", *map(str, args)]
    with open(work / "child_stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def child_error(work: Path) -> str:
    return (work / "child_stderr.txt").read_text(errors="replace").strip()[-300:]


def median_setup(setup, repeats: int):
    """Run set-up `repeats` times; returns (median seconds, last result)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


# ---------------------------------------------------------------- inputs


def solve_inputs(seed: int, sizes: Sizes, work: Path) -> list[tuple[Path, np.ndarray]]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for k in range(sizes.solve_series):
        values = inputs.series_values(rng, sizes.solve_n)
        path = work / f"series{k}.csv"
        path.write_text(inputs.series_text(values))
        out.append((path, values))
    return out


def io_inputs(seed: int, sizes: Sizes, work: Path):
    """Generate seeds with the sha256 of their expected series file, and spectrum files."""
    rng = np.random.default_rng([seed, 2])
    expected = {}
    for _ in range(sizes.io_files):
        gen_seed = int(rng.integers(0, 2**63))
        text = inputs.generated_series_text(gen_seed, sizes.io_n)
        expected[gen_seed] = hashlib.sha256(text.encode()).hexdigest()
    spectra = []
    for k in range(sizes.io_files):
        coeffs = rng.uniform(-1e4, 1e4, sizes.io_n)
        path = work / f"spectrum{k}.json"
        path.write_text(inputs.spectrum_text(coeffs))
        spectra.append((path, coeffs))
    return expected, spectra


def batch_inputs(seed: int, sizes: Sizes) -> list[np.ndarray]:
    """Series with n log-uniform in [8, n_max], stratified so every seed spans the range."""
    rng = np.random.default_rng([seed, 3])
    count = sizes.batch_series
    u = (np.arange(count) + rng.random(count)) / count
    ns = np.rint(8 * (sizes.batch_n_max / 8) ** u).astype(int)
    return [inputs.series_values(rng, int(n)) for n in rng.permutation(ns)]


# ---------------------------------------------------------------- checks


def check_analyze(report: Path) -> tuple[bool, float]:
    err = json.loads(report.read_text())["max_abs_error"]
    return err <= GATE, err


def check_reconstruct(series: np.ndarray, rebuilt: Path) -> tuple[bool, float]:
    try:
        values = np.array(rebuilt.read_text().split(), dtype=np.float64)
    except ValueError:
        return False, float("inf")
    if values.shape != series.shape:
        return False, float("inf")
    err = float(np.max(np.abs(values - series)))
    return err <= GATE, err


def check_plotdata(plot: Path, coeffs: np.ndarray) -> bool:
    text = plot.read_text()
    if len(text.splitlines()) != len(coeffs):
        return False
    try:
        rows = np.array(text.replace(",", "\n").split(), dtype=np.float64).reshape(-1, 2)
    except ValueError:
        return False
    if rows.shape != (len(coeffs), 2):
        return False
    freqs = inputs.spectrum_frequencies(len(coeffs))
    return bool(np.array_equal(rows[:, 1], coeffs)
                and np.allclose(rows[:, 0], freqs, rtol=1e-12, atol=0.0))


def sign_matrix(n: int) -> np.ndarray:
    """Entry (i, j) = (-1)^floor((i-1) / l_j), l_j = n - j + 1 (1-based)."""
    rows = np.arange(n)[:, None]
    spans = np.arange(n, 0, -1)[None, :]
    return 1.0 - 2.0 * ((rows // spans) & 1)


def forward_residual(values: np.ndarray, coeffs: np.ndarray) -> float:
    """Independent check of a forward solve against a freshly built sign matrix."""
    return float(np.max(np.abs(sign_matrix(len(values)) @ coeffs - values)))


# ---------------------------------------------------------------- workloads


def closed_loop(seconds: float, op) -> float:
    """Call op(i) for i = 0, 1, ... until `seconds` have passed; at least once."""
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        op(i)
        i += 1
    return time.perf_counter() - t0


def cli_pairs(seconds: float, names: tuple[str, str], step) -> dict:
    """Time rounds of two CLI calls; step(i) checks them and returns [(seconds, rss_mb)] * 2.

    Every completed call is timed; failed checks only show in the tally, and
    any failure marks the whole run incorrect.
    """
    times: tuple[list, list] = ([], [])
    pairs, rss = [], []

    def op(i):
        calls = step(i)
        for sample, (s, mb) in zip(times, calls):
            sample.append(s)
            rss.append(mb)
        pairs.append(sum(s for s, _ in calls))

    elapsed = closed_loop(seconds, op)
    return {
        names[0]: (statistics.median(times[0]), "s"),
        names[1]: (statistics.median(times[1]), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "latency_p50_ms": (statistics.median(pairs) * 1e3, "ms"),
        "ops_per_s": (len(pairs) / elapsed, "1/s"),
        "samples": (len(pairs), "count"),
    }


def solve_mid(seed, seconds, sizes, work, tally) -> dict:
    def setup():
        series = solve_inputs(seed, sizes, work)
        warm = work / "warm.csv"
        warm.write_text(inputs.series_text(series[0][1][:64]))
        _, _, rc = cli(["analyze", warm, "--fs", FS, "--out", work / "warm.json"], work)
        tally.record(rc == 0, f"warm-up analyze exit {rc}: {child_error(work)}")
        return series

    setup_s, series = median_setup(setup, sizes.setup_repeats)
    first_spectrum: dict[int, str] = {}
    errors = [0.0]

    def step(i):
        k = i % len(series)
        path, values = series[k]
        spectrum, report, rebuilt = (work / f"{name}{k}.{ext}" for name, ext in
                                     (("spectrum", "json"), ("report", "json"), ("rebuilt", "csv")))
        for p in (spectrum, report, rebuilt):
            p.unlink(missing_ok=True)

        a_s, a_rss, rc = cli(["analyze", path, "--fs", FS, "--out", spectrum, "--report", report], work)
        ok = rc == 0
        if ok:
            ok, err = check_analyze(report)
            errors.append(err)
            ok = ok and first_spectrum.setdefault(k, sha256(spectrum)) == sha256(spectrum)
        tally.record(ok, f"analyze series{k}: exit {rc} {child_error(work)}")

        r_s, r_rss, rc = cli(["reconstruct", spectrum, "--out", rebuilt], work)
        ok = rc == 0
        if ok:
            ok, err = check_reconstruct(values, rebuilt)
            errors.append(err)
        tally.record(ok, f"reconstruct series{k}: exit {rc} {child_error(work)}")
        return [(a_s, a_rss), (r_s, r_rss)]

    metrics = cli_pairs(seconds, ("analyze_s", "reconstruct_s"), step)
    return {"setup_s": (setup_s, "s"), "roundtrip_max_err": (max(errors), "abs"), **metrics}


def io_large(seed, seconds, sizes, work, tally) -> dict:
    def setup():
        expected, spectra = io_inputs(seed, sizes, work)
        _, _, rc = cli(["generate", "--seed", 0, "--n", 8, "--fs", FS, "--out", work / "warm.csv"], work)
        tally.record(rc == 0, f"warm-up generate exit {rc}: {child_error(work)}")
        return expected, spectra

    setup_s, (expected, spectra) = median_setup(setup, sizes.setup_repeats)
    gen_seeds = list(expected)
    verified_plot: dict[int, str] = {}

    def step(i):
        gen_seed = gen_seeds[i % len(gen_seeds)]
        k = i % len(spectra)
        generated, plot = work / "generated.csv", work / "plot.csv"
        generated.unlink(missing_ok=True)
        plot.unlink(missing_ok=True)

        g_s, g_rss, rc = cli(["generate", "--seed", gen_seed, "--n", sizes.io_n, "--fs", FS,
                              "--out", generated], work)
        tally.record(rc == 0 and sha256(generated) == expected[gen_seed],
                     f"generate seed {gen_seed}: exit {rc} {child_error(work)}")

        p_s, p_rss, rc = cli(["spectrum-plotdata", spectra[k][0], "--out", plot], work)
        ok = rc == 0
        if ok:
            digest = sha256(plot)
            if k not in verified_plot and check_plotdata(plot, spectra[k][1]):
                verified_plot[k] = digest
            ok = verified_plot.get(k) == digest
        tally.record(ok, f"spectrum-plotdata spectrum{k}: exit {rc} {child_error(work)}")
        return [(g_s, g_rss), (p_s, p_rss)]

    metrics = cli_pairs(seconds, ("generate_s", "plotdata_s"), step)
    return {"setup_s": (setup_s, "s"), **metrics}


def roundtrip(sqwt, values: np.ndarray):
    """One library round trip: series -> forward -> inverse -> report."""
    grid = sqwt.waves.GridSpec.from_sampling_rate(len(values), FS)
    series = sqwt.transform.TimeSeries(values, grid)
    spectrum, _ = sqwt.transform.forward(series)
    rebuilt = sqwt.transform.inverse(spectrum)
    report = sqwt.transform.reconstruction_report(series, rebuilt)
    return spectrum, rebuilt, report


def batch_small(seed, seconds, sizes, work, tally) -> dict:
    sqwt = import_sqwt()

    def setup():
        batch = batch_inputs(seed, sizes)
        for values in sorted(batch, key=len)[:: max(1, len(batch) // 8)]:
            roundtrip(sqwt, values)
        return batch

    setup_s, batch = median_setup(setup, sizes.setup_repeats)
    first: dict[int, np.ndarray] = {}
    latencies = []
    errors = [0.0]

    def op(i):
        k = i % len(batch)
        values = batch[k]
        t0 = time.perf_counter()
        try:
            out = roundtrip(sqwt, values)
        except Exception as exc:  # a failed call counts; the loop goes on
            out = exc
        latencies.append((time.perf_counter() - t0) * 1e3)
        if isinstance(out, Exception):
            tally.record(False, f"series {k} (n={len(values)}): {out!r}")
            return
        spectrum, rebuilt, report = out
        err = float(np.max(np.abs(rebuilt.values - values)))
        errors.extend((err, report.max_abs_error))
        coeffs = first.setdefault(k, spectrum.coefficients)
        ok = max(err, report.max_abs_error) <= GATE and np.array_equal(coeffs, spectrum.coefficients)
        tally.record(ok, f"series {k} (n={len(values)}): error {err:.3e}")

    elapsed = closed_loop(seconds, op)
    # independent oracle on each distinct result, outside the timed window
    for k, coeffs in first.items():
        residual = forward_residual(batch[k], coeffs)
        tally.record(residual <= GATE, f"series {k}: oracle residual {residual:.3e}")
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "roundtrip_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
        "roundtrip_p95_ms": (float(np.percentile(latencies, 95)), "ms"),
        "series_per_s": (len(latencies) / elapsed, "1/s"),
        "roundtrip_max_err": (max(errors), "abs"),
        "ops_per_s": (len(latencies) / elapsed, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "samples": (len(latencies), "count"),
    }


WORKLOADS = {"solve_mid": solve_mid, "io_large": io_large, "batch_small": batch_small}


# ---------------------------------------------------------------- traced run


def in_process(sqwt, tracer: tracing.Tracer, argv: list) -> int:
    """`sqwt.cli.main(argv)` with its console output discarded."""
    argv = [str(a) for a in argv]
    tracer.request = argv[0]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with tracer.span(f"cli.{argv[0]}"):
            return sqwt.cli.main(argv)


OUTPUTS = ("spectrum.json", "report.json", "rebuilt.csv", "generated.csv", "plot.csv")


def trace_commands(data, out: Path) -> list[tuple[str, list]]:
    """(section, argv) of the CLI commands in the traced run, writing OUTPUTS into out."""
    gen_seed = next(iter(data["expected"]))
    spectrum_path, coeffs = data["spectra"][0]
    return [
        ("solve_mid", ["analyze", data["series"][0][0], "--fs", FS, "--out", out / "spectrum.json",
                       "--report", out / "report.json"]),
        ("solve_mid", ["reconstruct", out / "spectrum.json", "--out", out / "rebuilt.csv"]),
        ("io_large", ["generate", "--seed", gen_seed, "--n", len(coeffs), "--fs", FS,
                      "--out", out / "generated.csv"]),
        ("io_large", ["spectrum-plotdata", spectrum_path, "--out", out / "plot.csv"]),
    ]


def reference_outputs(data, out: Path, work: Path, tally) -> None:
    """The traced run's CLI commands as untraced children, with their output checks."""
    out.mkdir()
    for _, argv in trace_commands(data, out):
        _, _, rc = cli(argv, work)
        tally.record(rc == 0, f"reference {argv[0]}: exit {rc} {child_error(work)}")
    values = data["series"][0][1]
    gen_seed, digest = next(iter(data["expected"].items()))
    tally.record(check_analyze(out / "report.json")[0], "reference analyze: round trip above 1e-9")
    tally.record(check_reconstruct(values, out / "rebuilt.csv")[0], "reference reconstruct: above 1e-9")
    tally.record(sha256(out / "generated.csv") == digest, f"reference generate seed {gen_seed}: wrong bytes")
    tally.record(check_plotdata(out / "plot.csv", data["spectra"][0][1]), "reference spectrum-plotdata: wrong rows")


def pipeline(sqwt, tracer, data, out: Path, tally) -> None:
    """One pass of every workload's operations in-process, writing into out."""
    out.mkdir()
    for section, argv in trace_commands(data, out):
        tracer.section = section
        rc = in_process(sqwt, tracer, argv)
        tally.record(rc == 0, f"in-process {argv[0]}: exit {rc}")

    # the benchmark's own spectrum writer must match the package's byte for byte
    tracer.request = "write_spectrum"
    coeffs = data["spectra"][0][1]
    grid = sqwt.waves.GridSpec.from_sampling_rate(len(coeffs), FS)
    sqwt.fileio.write_spectrum(out / "spectrum_copy.json", sqwt.transform.Spectrum(grid, coeffs))

    tracer.section = "batch_small"
    for k, values in enumerate(data["batch"]):
        tracer.request = f"series{k}"
        with tracer.span("batch.roundtrip"):
            _, _, report = roundtrip(sqwt, values)
        tally.record(report.max_abs_error <= GATE, f"traced series {k}: error {report.max_abs_error:.3e}")


def peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_run(seed, sizes, work, tally):
    sqwt = import_sqwt()
    one = work / "one.csv"
    one.write_text("1.5\n")
    startup = []
    for _ in range(STARTUP_REPEATS):
        s, _, rc = cli(["analyze", one, "--delta-t", 1, "--out", work / "one.json"], work)
        tally.record(rc == 0, f"startup analyze exit {rc}: {child_error(work)}")
        startup.append(s)

    expected, spectra = io_inputs(seed, sizes, work)
    data = {
        "series": solve_inputs(seed, sizes, work),
        "expected": expected,
        "spectra": spectra,
        "batch": batch_inputs(seed, sizes),
    }
    reference_outputs(data, work / "reference", work, tally)

    t0 = time.perf_counter()
    pipeline(sqwt, tracing.Tracer(), data, work / "plain", tally)
    plain_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        t0 = time.perf_counter()
        pipeline(sqwt, tracer, data, work / "traced", tally)
        traced_s = time.perf_counter() - t0
    finally:
        restore()

    spectrum_bytes = spectra[0][0].read_bytes()
    for label in ("plain", "traced"):
        for name in OUTPUTS:
            same = sha256(work / label / name) == sha256(work / "reference" / name)
            tally.record(same, f"{label} {name} differs from the CLI output")
        tally.record((work / label / "spectrum_copy.json").read_bytes() == spectrum_bytes,
                     f"{label} fileio.write_spectrum differs from the benchmark's spectrum bytes")

    series_values = data["series"][0][1]
    solve_peak = peak_mb(sqwt.linsolve.solve, sqwt.waves.SignPattern(len(series_values)), series_values)
    read_peak = peak_mb(sqwt.fileio.read_spectrum, spectra[0][0])

    spans = tracer.spans
    own = tracing.self_seconds(spans)

    def total(name, self_time=False):
        return sum(own[s.id] if self_time else s.seconds for s in spans if s.name == name)

    def attr_values(names, key):
        return [s.attrs[key] for s in spans if s.name in names]

    generate_s = total("random_series.generate")
    span_cost = tracing.span_cost_seconds()
    metrics = {
        "cli.startup_s": statistics.median(startup),
        "random_series.generate_s": generate_s,
        "random_series.values_per_s": sum(attr_values({"random_series.generate"}, "values")) / generate_s,
        "fileio.read_series_s": total("fileio.read_series"),
        "fileio.write_series_s": total("fileio.write_series"),
        "fileio.write_spectrum_s": total("fileio.write_spectrum"),
        "fileio.read_spectrum_s": total("fileio.read_spectrum"),
        "fileio.write_plotdata_s": total("fileio.write_plotdata"),
        "fileio.series_bytes": sum(attr_values({"fileio.read_series", "fileio.write_series"}, "bytes")),
        "fileio.spectrum_bytes": sum(attr_values({"fileio.read_spectrum", "fileio.write_spectrum"}, "bytes")),
        "fileio.read_spectrum_peak_mb": read_peak,
        "transform.forward_s": total("transform.forward"),
        "transform.forward.self_s": total("transform.forward", self_time=True),
        "transform.inverse_s": total("transform.inverse"),
        "transform.inverse.self_s": total("transform.inverse", self_time=True),
        "transform.report_s": total("transform.report"),
        "linsolve.solve_s": total("linsolve.solve"),
        "linsolve.matvec_s": total("linsolve.matvec"),
        "linsolve.matvec_calls": sum(1 for s in spans if s.name == "linsolve.matvec"),
        "linsolve.solve_peak_mb": solve_peak,
        "linsolve.residual_inf": max(attr_values({"linsolve.solve"}, "residual_inf")),
        "linsolve.refine_steps": sum(attr_values({"linsolve.solve"}, "refine_steps")),
        "trace.spans": len(spans),
        "trace.span_cost_us": span_cost * 1e6,
        "trace.overhead_s": traced_s - plain_s,
    }
    table = tracing.summarize(spans)
    print(f"traced pass {traced_s:.3f} s, untraced pass {plain_s:.3f} s, "
          f"{len(spans)} spans at {span_cost * 1e6:.2f} us each "
          f"(~{len(spans) * span_cost:.4f} s)")
    print(f"  {'section':<12} {'span':<24} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    for (section, name), row in sorted(table.items()):
        print(f"  {section:<12} {name:<24} {row['calls']:>7} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    record = {
        "spans": [vars(s) for s in spans],
        "summary": [{"section": sec, "span": name, **row} for (sec, name), row in sorted(table.items())],
    }
    return {name: (value, PER_LAYER[name]) for name, value in metrics.items()}, record


# ---------------------------------------------------------------- entry point


def import_sqwt():
    sys.path.insert(0, str(SRC))
    import sqwt.cli
    import sqwt.fileio
    import sqwt.linsolve
    import sqwt.transform
    import sqwt.waves

    if Path(sqwt.__file__).resolve().parent != (SRC / "sqwt").resolve():
        raise RuntimeError(f"imported sqwt from {sqwt.__file__}, not from {SRC}")
    return sqwt


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that scipy's LU uses, if it can be asked."""
    import scipy

    for lib in glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir,
                                      "scipy.libs", "libscipy_openblas*.so")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def fingerprint() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: CLI children are killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "sqwt" / "__init__.py").is_file():
        print(f"error: no sqwt package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    sizes = SMOKE if args.smoke else FULL
    tally = Tally()
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        if args.trace:
            metrics, extra = traced_run(args.seed, sizes, work, tally)
            wanted = PER_LAYER
        else:
            metrics = WORKLOADS[args.workload](args.seed, args.seconds, sizes, work, tally)
            extra = {}
            wanted = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()

    metrics["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    env = fingerprint()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    for message in tally.errors:
        print(f"  FAILED: {message}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": vars(sizes), "env": env, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
