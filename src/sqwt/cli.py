"""Command-line surface: analyze, reconstruct, generate, spectrum-plotdata.

A process entry (`main()` with no argv: `python -m sqwt` or the `sqwt`
script) acts before any command imports numpy. sqwt makes no BLAS call, so
when neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS is set, it sets both
to 1. It turns the cyclic garbage collector off, and freezes the heap once
the command has its exit code, so that no collection, the interpreter's
shutdown passes included, walks numpy's objects. atexit handlers, stream
flushes and module teardown still run. `main(argv)` called in-process
leaves the environment and the collector as it found them.
Exit codes: 0 success, 2 bad flags, unparsable input, an output or a
stdout that cannot be written, or values whose transform overflows float64.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import FileFormatError

EXIT_OK = 0
EXIT_USAGE = 2
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqwt",
        description="Square-wave decomposition and reconstruction of "
        "uniformly sampled time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decompose a series file into a dyad spectrum")
    p.add_argument("input", help="series file, one value per line")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--delta-t", type=float, metavar="SECONDS",
                      help="total duration of the series")
    grid.add_argument("--fs", type=float, metavar="HERTZ",
                      help="sampling frequency")
    p.add_argument("--out", required=True, help="spectrum JSON output path")
    p.add_argument("--report", default=None,
                   help="also write the round-trip error report JSON here")
    p.add_argument("--unit", default="", help="unit label carried into the spectrum")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reconstruct", help="rebuild the series from a spectrum file")
    p.add_argument("input", help="spectrum JSON file")
    p.add_argument("--out", required=True, help="series output path")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("generate", help="write a seeded synthetic series file")
    p.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    p.add_argument("--n", type=int, required=True, help="number of values")
    p.add_argument("--fs", type=float, required=True, metavar="HERTZ",
                   help="sampling frequency")
    p.add_argument("--out", required=True, help="series output path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("spectrum-plotdata",
                       help="export a spectrum as a two-column (f_hz, c) CSV for plotting")
    p.add_argument("input", help="spectrum JSON file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_spectrum_plotdata)

    return parser


def _cmd_analyze(args) -> list[str]:
    from .fileio import read_series_values, write_report, write_spectrum
    from .transform import TimeSeries, forward, inverse, reconstruction_report
    from .waves import GridSpec

    if args.report is not None and (os.path.isfile(args.out) or not os.path.exists(args.out)):
        try:  # /dev/null may take both; a regular file by one path or two hard links may not
            same = os.path.samefile(args.out, args.report)
        except OSError:  # one of them does not exist yet
            same = os.path.realpath(args.out) == os.path.realpath(args.report)
        if same:
            raise ValueError(f"--out and --report name the same file: {args.report}")
    values = read_series_values(args.input)
    n = len(values)
    if args.delta_t is not None:
        grid = GridSpec.from_duration(n, args.delta_t)
    else:
        grid = GridSpec.from_sampling_rate(n, args.fs)
    series = TimeSeries(values, grid, args.unit)
    del values  # the series holds its own copy; the parsed one need not live through the solve
    spectrum, solve_report = forward(series)
    recon = reconstruction_report(series, inverse(spectrum))
    if args.report is not None:  # first: a report that cannot be written leaves --out untouched
        write_report(args.report, recon)
    write_spectrum(args.out, spectrum)
    lines = [
        f"analyzed n={n} delta_t={grid.delta_t} s f_s={grid.f_s} Hz",
        f"solve: correction_inf={solve_report.residual_inf_norm:.3e} "
        f"elapsed={solve_report.elapsed_seconds:.4f} s",
        f"round trip: max_abs_error={recon.max_abs_error:.3e} "
        f"at i={recon.index_of_max} rms_error={recon.rms_error:.3e}",
        f"wrote spectrum to {args.out}",
    ]
    if args.report is not None:
        lines.append(f"wrote report to {args.report}")
    return lines


def _cmd_reconstruct(args) -> list[str]:
    from .fileio import read_spectrum, write_series_values
    from .transform import inverse

    spectrum = read_spectrum(args.input)
    series = inverse(spectrum)
    write_series_values(args.out, series.values)
    return [f"wrote {series.n} values to {args.out}"]


def _cmd_generate(args) -> list[str]:
    from .fileio import write_series_values
    from .random_series import generate
    from .waves import GridSpec

    grid = GridSpec.from_sampling_rate(args.n, args.fs)
    result = generate(args.seed, grid)
    write_series_values(args.out, result.series.values)
    return [
        f"generated n={args.n} values with seed={args.seed}: "
        f"f_s={grid.f_s} Hz, delta_t={grid.delta_t} s",
        f"wrote series to {args.out}",
    ]


def _cmd_spectrum_plotdata(args) -> list[str]:
    from .fileio import read_spectrum, write_plotdata

    spectrum = read_spectrum(args.input)
    write_plotdata(args.out, spectrum)
    return [f"wrote {spectrum.n} rows to {args.out}"]


def main(argv=None) -> int:
    if argv is None:  # a process entry, before any command imports numpy
        if not _BLAS_THREAD_VARS & os.environ.keys():
            # an idle BLAS thread pool only costs start-up time
            os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        # the process ends with the command, whose cyclic garbage does not
        # grow with its input: a collection, during the run or in the
        # shutdown passes (which skip a frozen heap), walks numpy's live objects
        gc.disable()
        try:
            return _run(argv)
        finally:
            gc.freeze()
    return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.func(args)
    except (FileFormatError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:  # the output files are written; a full disk or a closed pipe fails here
        print(*lines, sep="\n", flush=True)
    except OSError as exc:
        print(f"error: stdout: cannot write: {exc.strerror}", file=sys.stderr)
        if argv is None:  # a process entry: keep the interpreter's final flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return EXIT_OK
