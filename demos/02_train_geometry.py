"""Explore train geometry: half-wave spans, the frequency law, midpoint samples.

For a small grid the script draws each train's sign sequence as a bar of
+/- cells, lists the frequency ladder, and shows how midpoint samples of a
single train look once a coefficient is attached.
"""

from sqwt import GridSpec, sign_at, train_frequency


def main():
    n = 12
    grid = GridSpec.from_duration(n, 3.0)
    print(f"grid: n={n}, delta_t={grid.delta_t} s, f_s={grid.f_s} Hz")

    print("\ntrain geometry:")
    for i in range(1, n + 1):
        cells = "".join("+" if sign_at(n, k, i) > 0 else "-" for k in range(1, n + 1))
        print(f"  train {i:2d}: half-wave {n - i + 1:2d} cells  "
              f"[{cells}]  f = {train_frequency(grid, i):.6f} Hz")

    print("\nfrequency law f_i = f_s / (2 * (n - i + 1)):")
    print(f"  slowest train: f_1 = {train_frequency(grid, 1):.6f} Hz "
          f"(one half-wave spans the whole interval)")
    print(f"  fastest train: f_{n} = {train_frequency(grid, n):.6f} Hz = f_s / 2")

    big = GridSpec.from_duration(10000, 5.0)
    print(f"\nsame law at n={big.n}, delta_t={big.delta_t} s:")
    for i in (1, 2, 100, 10000):
        print(f"  f_{i} = {train_frequency(big, i):.6f} Hz "
              f"(half-wave {big.n - i + 1} subintervals)")

    print("\nmidpoint samples of train 3 with coefficient -7.25 (n=12):")
    samples = [sign_at(n, k, 3) * -7.25 for k in range(1, n + 1)]
    print("  " + ", ".join(f"{s:+.2f}" for s in samples))


if __name__ == "__main__":
    main()
