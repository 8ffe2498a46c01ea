"""Command-line surface: analyze, reconstruct, generate, bench, spectrum-plotdata.

The solver is single-threaded and deterministic, so --threads is accepted
and validated for compatibility with existing scripts but changes nothing.
sqwt makes no BLAS call, so when neither OPENBLAS_NUM_THREADS nor
OMP_NUM_THREADS is set, a CLI process sets both to 1 before numpy starts.
Exit codes: 0 success, 2 bad flags, unparsable input or values whose
transform overflows float64.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 2
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="accepted for compatibility; must be >= 1 and has no effect",
    )

    parser = argparse.ArgumentParser(
        prog="sqwt",
        description="Square-wave decomposition and reconstruction of "
        "uniformly sampled time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze",
        parents=[common],
        help="decompose a series file into a dyad spectrum",
    )
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

    p = sub.add_parser(
        "reconstruct",
        parents=[common],
        help="rebuild the series from a spectrum file",
    )
    p.add_argument("input", help="spectrum JSON file")
    p.add_argument("--out", required=True, help="series output path")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser(
        "generate",
        parents=[common],
        help="write a seeded synthetic series file",
    )
    p.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    p.add_argument("--n", type=int, required=True, help="number of values")
    p.add_argument("--fs", type=float, required=True, metavar="HERTZ",
                   help="sampling frequency")
    p.add_argument("--out", required=True, help="series output path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "bench",
        parents=[common],
        help="time solve and apply_sign_matrix over a list of sizes",
    )
    p.add_argument("--sizes", required=True,
                   help="comma-separated list of system sizes, e.g. 256,1024")
    p.add_argument("--repeats", type=int, default=1,
                   help="repetitions per size; timings report the best run")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "spectrum-plotdata",
        parents=[common],
        help="export a spectrum as a two-column (f_hz, c) CSV for plotting",
    )
    p.add_argument("input", help="spectrum JSON file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_spectrum_plotdata)

    return parser


def _cmd_analyze(args) -> int:
    from .fileio import read_series_values, write_report, write_spectrum
    from .transform import TimeSeries, forward, inverse, reconstruction_report
    from .waves import GridSpec

    values = read_series_values(args.input)
    n = len(values)
    if args.delta_t is not None:
        grid = GridSpec.from_duration(n, args.delta_t)
    else:
        grid = GridSpec.from_sampling_rate(n, args.fs)
    series = TimeSeries(values, grid, args.unit)
    spectrum, solve_report = forward(series)
    write_spectrum(args.out, spectrum)
    recon = reconstruction_report(series, inverse(spectrum))
    print(f"analyzed n={n} delta_t={grid.delta_t} s f_s={grid.f_s} Hz")
    print(
        f"solve: min_pivot={solve_report.min_pivot:.6g} "
        f"residual_inf={solve_report.residual_inf_norm:.3e} "
        f"refinement_steps={solve_report.refinement_steps_used} "
        f"elapsed={solve_report.elapsed_seconds:.4f} s"
    )
    print(
        f"round trip: max_abs_error={recon.max_abs_error:.3e} "
        f"at i={recon.index_of_max} rms_error={recon.rms_error:.3e}"
    )
    print(f"wrote spectrum to {args.out}")
    if args.report is not None:
        write_report(args.report, recon)
        print(f"wrote report to {args.report}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    from .fileio import read_spectrum, write_series_values
    from .transform import inverse

    spectrum = read_spectrum(args.input)
    series = inverse(spectrum)
    write_series_values(args.out, series.values)
    print(f"wrote {series.n} values to {args.out}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.n < 1:
        return _fail_usage(f"--n must be >= 1, got {args.n}")

    from .fileio import write_series_values
    from .random_series import generate
    from .waves import GridSpec

    grid = GridSpec.from_sampling_rate(args.n, args.fs)
    result = generate(args.seed, args.n, grid)
    write_series_values(args.out, result.series.values)
    print(
        f"generated n={args.n} values with seed={args.seed}: "
        f"f_s={grid.f_s} Hz, delta_t={grid.delta_t} s"
    )
    print(f"wrote series to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        return _fail_usage(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or any(n < 1 for n in sizes):
        return _fail_usage(f"--sizes entries must be >= 1, got {args.sizes!r}")
    if args.repeats < 1:
        return _fail_usage(f"--repeats must be >= 1, got {args.repeats}")

    from .bench import format_table, run_bench

    rows = run_bench(sizes, args.repeats)
    print(format_table(rows))
    return EXIT_OK


def _cmd_spectrum_plotdata(args) -> int:
    from .fileio import read_spectrum, write_plotdata

    spectrum = read_spectrum(args.input)
    write_plotdata(args.out, spectrum)
    print(f"wrote {spectrum.n} rows to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None and not _BLAS_THREAD_VARS & os.environ.keys():
        # a process entry, before any command imports numpy: an idle BLAS
        # thread pool only costs start-up time
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        return _fail_usage(f"--threads must be >= 1, got {args.threads}")

    from .errors import FileFormatError

    try:
        return args.func(args)
    except (FileFormatError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
