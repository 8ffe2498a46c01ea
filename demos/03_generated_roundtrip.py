"""Generate a seeded random series, decompose it, and rebuild it.

Mirrors the large-scale experiment at a friendlier size: 2,000 values at
2,000 Hz from the digit-mapping generator, decomposed into 2,000 dyads and
reconstructed. The spectrum and its plot data land in demos/output/.
"""

import time
from pathlib import Path

import numpy as np

from sqwt import GridSpec, forward, generate, inverse, reconstruction_report
from sqwt.fileio import (
    format_dyad_display,
    write_plotdata,
    write_series_values,
    write_spectrum,
)

SEED = 20250811
N = 2000
F_S = 2000.0


def main():
    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)

    grid = GridSpec.from_sampling_rate(N, F_S)
    result = generate(SEED, grid)
    series = result.series
    print(f"generated n={N} values, seed={result.seed}, "
          f"f_s={grid.f_s} Hz, delta_t={grid.delta_t} s")
    print(f"value range: [{series.values.min():.5f}, {series.values.max():.5f}]")
    print("first five:", ", ".join(f"{v:.5f}" for v in series.values[:5]))

    t0 = time.perf_counter()
    spectrum, report = forward(series)
    print(f"\nsolved {N}x{N} system in {report.elapsed_seconds:.2f} s "
          f"(largest correction to the plain sums {report.residual_inf_norm:.3e})")

    print("\nfirst ten dyads:")
    dyads = zip(spectrum.frequencies[:10], spectrum.coefficients[:10])
    for i, (f, c) in enumerate(dyads, start=1):
        print(f"  {i:3d}. {format_dyad_display(f, c)}")
    largest = int(np.argmax(np.abs(spectrum.coefficients)))
    print(f"largest coefficient: |C_{largest + 1}| = "
          f"{abs(spectrum.coefficients[largest]):.3f}")

    rebuilt = inverse(spectrum)
    check = reconstruction_report(series, rebuilt)
    print(f"\nround trip: max |V_i - V_i_rebuilt| = {check.max_abs_error:.3e} "
          f"at i={check.index_of_max}, rms {check.rms_error:.3e}, "
          f"total {time.perf_counter() - t0:.2f} s")

    series_path = out_dir / "generated_series.csv"
    spectrum_path = out_dir / "generated_spectrum.json"
    plot_path = out_dir / "generated_spectrum_plotdata.csv"
    write_series_values(series_path, series.values)
    write_spectrum(spectrum_path, spectrum)
    write_plotdata(plot_path, spectrum)
    print(f"\nwrote {series_path}")
    print(f"wrote {spectrum_path}")
    print(f"wrote {plot_path} (bar-plot ready: frequency, coefficient)")


if __name__ == "__main__":
    main()
