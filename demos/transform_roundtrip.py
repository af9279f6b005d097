"""Round-trip accuracy of the generalized Fourier transform.

Builds the Gauss-type quadrature grid for a one-dimensional sign-symmetry
group, pushes a family of band-limited functions through the forward and
inverse transforms, and prints the reconstruction and Parseval defects.
The same numbers drive the `plancherel` verification suite; this script
just lays them out so the convergence behavior is visible at a glance.
"""

import time

import numpy as np

from dunklkit.families import band_limited_family
from dunklkit.grids import SampledFunction, build_grid
from dunklkit.reflection import RootSystem
from dunklkit.transform import build_spectral_matrix, dunkl_transform, inverse_transform, parseval_defect


def main():
    for kappa in (0.0, 0.5, 1.5):
        rs = RootSystem.z2_product([kappa])
        grid = build_grid(rs, 10.0, 128)
        t0 = time.time()
        sm = build_spectral_matrix(grid)
        xs = grid.nodes[:, 0]
        worst_rt, worst_pv = 0.0, 0.0
        for vals in band_limited_family(xs, n_functions=20, seed=11):
            f = SampledFunction(grid, vals.astype(complex))
            back = inverse_transform(sm, dunkl_transform(sm, f))
            rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
            worst_rt = max(worst_rt, float(rel))
            worst_pv = max(worst_pv, float(parseval_defect(sm, f, f)))
        print(
            "kappa=%.1f  roundtrip %.3e  parseval %.3e  (%.2fs)"
            % (kappa, worst_rt, worst_pv, time.time() - t0)
        )

    # refinement: the defect should fall fast as the node count grows
    rs = RootSystem.z2_product([0.5])
    print("\nnodes  roundtrip")
    for n in (32, 48, 64, 96, 128):
        grid = build_grid(rs, 10.0, n)
        sm = build_spectral_matrix(grid)
        xs = grid.nodes[:, 0]
        f = SampledFunction(grid, np.exp(-(xs**2) / 2.0) * np.cos(2.0 * xs) + 0j)
        back = inverse_transform(sm, dunkl_transform(sm, f))
        rel = float(np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values)))
        print("%5d  %.3e" % (n, rel))


if __name__ == "__main__":
    main()
