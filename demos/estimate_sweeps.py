"""Bounded-ratio sweeps for the dispersive and counting estimates.

Runs a small Strichartz scan, its gauge-invariance companion, and the
lattice-slab counting sweep, then writes CSV/JSON reports under
$KFL_OUT_DIR (default ./kflab_out).  Runs in about a minute.
"""

import os

import numpy as np

from kflab import (
    counting_sweep,
    loglog_slope,
    make_grid,
    strichartz_gauge_check,
    strichartz_scan,
)


def main() -> None:
    out_dir = os.environ.get("KFL_OUT_DIR", "kflab_out")

    grid = make_grid(d=2, n_modes=16, v_extent=8.0, v_points=16)
    scan = strichartz_scan(grid, Ns=(2, 4, 8), Ms=(1, 2), trials=5, T=1.0, seed=0, n_time=9)
    ratios = np.array(scan.column("ratio"))
    Ns_col = np.array(scan.column("N"))
    Ns = sorted(set(Ns_col))
    max_per_N = [float(np.max(ratios[Ns_col == N])) for N in Ns]
    slope = loglog_slope(Ns, max_per_N)
    print(f"strichartz: max ratio {np.max(ratios):.3f}, slope vs N {slope:+.3f}")
    print("  ->", scan.write(out_dir)[0])

    gauge = strichartz_gauge_check(
        grid, N=4, M=2, shift=(2, 0), trials=5, T=1.0, seed=0, n_time=17
    )
    print(f"gauge defect (exact symmetry): {max(gauge.column('defect')):.2e}")

    sweep = counting_sweep(
        Ns=(4, 8, 16), Ms=(1, 2, 4), Ks=(1, 2), queries_per_cell=20, seed=0
    )
    r = np.array(sweep.column("ratio"))
    print(f"counting: {len(r)} queries, max ratio {np.max(r):.3f}")
    print("  ->", sweep.write(out_dir)[0])


if __name__ == "__main__":
    main()
