"""Riesz transform bounds: L2 contraction and the weak (1,1) ratio.

The derivative of the inverse square root of the generator contracts L2;
on L1 it only satisfies the distributional (weak-type) bound.  The script
prints the L2 ratios over random smooth functions, then sweeps normalized
indicator atoms of shrinking radius and reports the layer-cake supremum
lambda * mu{|R b| > lambda} for each, which stays bounded while the atoms
shrink toward points.
"""

import numpy as np

from dunklkit.families import random_band_limited
from dunklkit.grids import SampledFunction, build_grid
from dunklkit.reflection import RootSystem
from dunklkit.schrodinger import (
    potential_preset,
    resolved_calculus,
    riesz_matrix,
    weak_type_report,
)


def main():
    rs = RootSystem.z2_product([0.5])
    grid = build_grid(rs, 10.0, 256)
    ed = resolved_calculus(grid, potential_preset(grid, "soft_coulomb", a=1.0))
    R = riesz_matrix(ed, axis=0)
    xs = grid.nodes[:, 0]

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        f = SampledFunction(grid, random_band_limited(xs, rng, n_terms=8, max_degree=16))
        rf = SampledFunction(grid, R @ f.values)
        worst = max(worst, float(rf.norm_l2() / f.norm_l2()))
    print("L2 ratio over 20 random functions: %.6f (<= 1 + 1e-3)" % worst)

    atoms = [(0.0, 1.0), (0.0, 0.5), (0.0, 0.35), (1.3, 1.0), (1.3, 0.5)]
    rep = weak_type_report(ed, atoms, axis=0)
    print("\ncenter  radius  weak ratio  under-resolved")
    for a in rep["atoms"]:
        print(
            "%5.2f  %6.2f  %9.4f  %s"
            % (a["center"], a["radius"], a["ratio"], a["under_resolved"])
        )
    print("sup ratio: %.4f" % rep["sup_ratio"])


if __name__ == "__main__":
    main()
