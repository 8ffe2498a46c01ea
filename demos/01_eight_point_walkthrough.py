"""Walk through the classic 8-value decomposition step by step.

Eight voltage readings taken over 2 seconds are decomposed into eight
trains of square waves. The script prints the sign grid, the solved
coefficients, the dyad spectrum, and the verification sums that rebuild
every reading from the coefficients.
"""

import numpy as np

from sqwt import GridSpec, TimeSeries, forward, inverse, reconstruction_report, sign_at
from sqwt.fileio import format_dyad_display

VALUES = [84.0, -152.0, 63.0, 98.0, -35.0, 0.0, 145.0, -14.0]


def main():
    grid = GridSpec.from_duration(8, 2.0)
    series = TimeSeries(VALUES, grid, "mV")
    print(f"series ({series.unit}):", ", ".join(f"{v:g}" for v in series.values))
    print(f"grid: n={grid.n}, delta_t={grid.delta_t} s, f_s={grid.f_s} Hz")

    signs = np.array([[sign_at(8, i, j) for j in range(1, 9)] for i in range(1, 9)])
    print("\nsign grid (rows = subintervals, columns = trains):")
    for i, row in enumerate(signs, start=1):
        cells = " ".join("+" if s > 0 else "-" for s in row)
        print(f"  i={i}:  {cells}")

    spectrum, report = forward(series)
    print("\nsolved coefficients (mV):")
    for i, c in enumerate(spectrum.coefficients, start=1):
        print(f"  C_{i} = {c:g}")
    print(f"solver: largest correction={report.residual_inf_norm:.3e}, "
          f"elapsed={report.elapsed_seconds * 1e3:.2f} ms")

    print("\ndyad spectrum (f_i; C_i):")
    for i, (f, c) in enumerate(zip(spectrum.frequencies, spectrum.coefficients), start=1):
        print(f"  {i}. {format_dyad_display(f, c)}")

    print("\nverification sums, one per subinterval:")
    for i, row in enumerate(signs, start=1):
        terms = " ".join(
            f"{'+' if s > 0 else '-'}{abs(c):g}"
            for s, c in zip(row, spectrum.coefficients)
        )
        total = float(np.sum(row * spectrum.coefficients))
        print(f"  i={i}: {terms} = {total:g}")

    rebuilt = inverse(spectrum)
    check = reconstruction_report(series, rebuilt)
    print(f"\nround trip: max |V_i - V_i_rebuilt| = {check.max_abs_error:.3e} "
          f"(rms {check.rms_error:.3e})")


if __name__ == "__main__":
    main()
