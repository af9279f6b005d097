"""Heat flow under the reflection-symmetric Laplacian.

Evolves a point-ish initial bump with the closed-form kernel, checks mass
conservation and the semigroup property, and prints the fitted constants
of the Gaussian-shape upper bounds in their three normalizations.  The
kernel is strictly positive and spreads with sqrt(t); both features show
up directly in the printed table.
"""

import numpy as np

from dunklkit.grids import SampledFunction, build_grid
from dunklkit.heat import (
    gaussian_bound_report,
    heat_apply,
    heat_kernel_matrix,
)
from dunklkit.reflection import RootSystem
from dunklkit.transform import build_spectral_matrix


def main():
    rs = RootSystem.z2_product([0.5])
    grid = build_grid(rs, 14.0, 256)
    sm = build_spectral_matrix(grid)
    xs = grid.nodes[:, 0]
    interior = grid.interior_mask(0.45)

    print("t      mass defect   sup K_t(., 0)")
    for t in (0.05, 0.1, 0.5, 1.0, 2.0):
        K = heat_kernel_matrix(grid, t)
        mass = K @ grid.mu_weights
        j0 = int(np.argmin(np.abs(xs)))
        print(
            "%.2f   %.3e     %.5f"
            % (t, float(np.max(np.abs(mass[interior] - 1.0))), float(np.max(K[:, j0])))
        )

    f = SampledFunction(grid, np.exp(-(xs**2) * 4.0))
    two_step = heat_apply(sm, 0.3, heat_apply(sm, 0.2, f))
    one_step = heat_apply(sm, 0.5, f)
    gap = float(np.max(np.abs(two_step.values - one_step.values)))
    print("\nsemigroup defect e^{-0.3A} e^{-0.2A} vs e^{-0.5A}: %.3e" % gap)

    rep = gaussian_bound_report(rs, (0.1, 0.5, 1.0), n_samples=60, seed=2)
    print("\nbound form     C        c")
    for form, fit in sorted(rep["fits"].items()):
        print("%-12s  %.4f   %.4f" % (form, fit["C"], fit["c"]))
    print("min sampled kernel value: %.3e (> 0)" % rep["min_kernel_value"])


if __name__ == "__main__":
    main()
