"""Regenerate the bundled calibration table for the refined procedure.

Writes src/equivkit/data/alpha_c_table.csv on the default grid
(sigma1 from 0.01 to 0.30 in steps of 0.005, nu2 from 5 to 100) with the
quadrature strategy.  Run from the repository root:

    python3 scripts/gen_calibration_table.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from equivkit.univariate import build_calibration_table  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src/equivkit/data/alpha_c_table.csv"


def main():
    start = time.perf_counter()
    table = build_calibration_table(path=str(OUT))
    elapsed = time.perf_counter() - start
    print(f"wrote {OUT}")
    print(f"grid: {len(table.sigma_grid)} sigma x {len(table.nu_grid)} nu, "
          f"{elapsed:.1f}s")
    print(f"alpha_c range: [{table.alpha_c.min():.6f}, {table.alpha_c.max():.6f}]")


if __name__ == "__main__":
    main()
