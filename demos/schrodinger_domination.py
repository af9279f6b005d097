"""Damped semigroup versus free heat flow, and splitting convergence.

The semigroup generated by A + V with V >= 0 is dominated by the free
heat semigroup: its kernel W_t sits between 0 and K_t entrywise.  The
script prints those margins for three potential shapes, then shows the
first-order Trotter splitting error halving as the step count doubles.
"""

import numpy as np

from dunklkit.grids import SampledFunction, build_grid
from dunklkit.heat import heat_kernel_matrix
from dunklkit.reflection import RootSystem
from dunklkit.schrodinger import (
    potential_preset,
    resolved_calculus,
    schrodinger_kernel,
    semigroup_apply,
    semigroup_trotter,
)
from dunklkit.transform import build_spectral_matrix


def main():
    rs = RootSystem.z2_product([0.5])
    grid = build_grid(rs, 14.0, 256)

    presets = (
        ("constant", {"c": 1.0}),
        ("soft_coulomb", {"a": 1.0}),
        ("bump", {"h": 1.0, "w": 6.0}),
    )
    print("potential      t     min W        max (W - K)")
    for name, params in presets:
        ed = resolved_calculus(grid, potential_preset(grid, name, **params))
        for t in (0.1, 1.0):
            W = schrodinger_kernel(ed, t)
            K = heat_kernel_matrix(grid, t)
            print(
                "%-12s  %.1f   % .3e   % .3e"
                % (name, t, float(W.min()), float((W - K).max()))
            )

    # Trotter: error ~ C/n for the first-order split
    grid = build_grid(rs, 10.0, 128)
    sm = build_spectral_matrix(grid)
    V = potential_preset(grid, "soft_coulomb", a=1.0)
    ed = resolved_calculus(grid, V)
    xs = grid.nodes[:, 0]
    f = SampledFunction(grid, np.exp(-(xs**2) / 2.0) * (1.0 + 0.2 * xs))
    ref = semigroup_apply(ed, 1.0, f)
    print("\nsteps  L2 error   ratio")
    prev = None
    for n in (8, 16, 32, 64):
        tr = semigroup_trotter(sm, V, 1.0, n, f)
        err = float(np.sqrt(np.sum(grid.mu_weights * (tr.values - ref.values) ** 2)))
        print("%5d  %.3e  %s" % (n, err, "" if prev is None else "%.3f" % (prev / err)))
        prev = err


if __name__ == "__main__":
    main()
