"""Symmetric quadrature grids for the weighted measure and sampled functions.

Grids are per-axis composite Gauss-Legendre rules on [-R, R], symmetric under
sign flips and avoiding zero, tensorized over axes.  Sign-flip group elements
act on node indices by exact permutations, so reflected samples carry no
interpolation error.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import CapabilityError, InputError
from .reflection import Z2_PRODUCT, RootSystem, weight


def axis_rule(R: float, n_axis: int) -> tuple:
    """Symmetric zero-avoiding Gauss-Legendre rule on [-R, R]."""
    if n_axis % 2 != 0 or n_axis < 2:
        raise InputError("per-axis node count must be even and >= 2")
    if R <= 0:
        raise InputError("half-width must be positive")
    xg, wg = roots_legendre(n_axis // 2)
    xp = 0.5 * R * (xg + 1.0)
    wp = 0.5 * R * wg
    return (
        np.concatenate([-xp[::-1], xp]),
        np.concatenate([wp[::-1], wp]),
    )


@dataclass(frozen=True, eq=False)  # hashed by identity: the fields are arrays
class QuadratureGrid:
    rs: RootSystem
    half_width: float
    n_axis: int
    nodes: np.ndarray  # (N, d)
    lebesgue_weights: np.ndarray
    mu_weights: np.ndarray
    sign_perms: dict  # sign pattern tuple -> node index permutation

    def __len__(self):
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.rs.dimension

    @property
    def axis_nodes(self) -> np.ndarray:
        return np.unique(np.round(self.nodes[:, 0], 14))

    @property
    def negation_perm(self) -> np.ndarray:
        return self.sign_perms[tuple([-1] * self.dimension)]

    def reflection_map(self, signs) -> np.ndarray:
        """Node permutation realizing the diagonal sign matrix."""
        return self.sign_perms[tuple(int(s) for s in signs)]

    def axis_table(self, fn) -> np.ndarray:
        """n x n table of a symmetric fn(a, b) on the ascending axis rule,
        which every axis shares; one call on the unordered pairs."""
        ax = np.unique(self.nodes[:, 0])
        iu, ju = np.triu_indices(ax.size)
        vals = fn(ax[iu], ax[ju])
        a = np.empty((ax.size, ax.size), dtype=vals.dtype)
        a[iu, ju] = a[ju, iu] = vals
        return a

    def interior_mask(self, fraction: float = 0.8) -> np.ndarray:
        """Nodes with every coordinate inside the central fraction of [-R, R]."""
        return np.all(np.abs(self.nodes) <= fraction * self.half_width, axis=1)


def build_grid(rs: RootSystem, R: float, n_axis: int) -> QuadratureGrid:
    if rs.kind != Z2_PRODUCT:
        raise CapabilityError(
            f"grids, and every table built on them, require a sign product group "
            f"(z2_product), not {rs.kind}"
        )
    d = rs.dimension
    ax, aw = axis_rule(R, n_axis)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*([aw] * d), indexing="ij")
    leb = np.ones(nodes.shape[0])
    for wm in wmesh:
        leb = leb * wm.ravel()
    mu = leb * weight(rs, nodes)

    # sign-flip permutations by index arithmetic on the row-major multi-index
    idx = np.arange(nodes.shape[0]).reshape([n_axis] * d)
    perms = {}
    for bits in range(2**d):
        signs = tuple(1 - 2 * ((bits >> j) & 1) for j in range(d))
        view = idx
        for j, s in enumerate(signs):
            if s < 0:
                view = np.flip(view, axis=j)
        perms[signs] = view.ravel().copy()
    return QuadratureGrid(rs, float(R), int(n_axis), nodes, leb, mu, perms)


@dataclass
class SampledFunction:
    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (len(self.grid),):
            raise InputError("sample length must match the grid")
        self.values = v

    def norm_l2(self) -> float:
        return float(np.sqrt(np.sum(self.grid.mu_weights * np.abs(self.values) ** 2)))

    def norm_lp(self, p: float) -> float:
        if np.isinf(p):
            return float(np.max(np.abs(self.values)))
        return float(np.sum(self.grid.mu_weights * np.abs(self.values) ** p) ** (1.0 / p))

    def inner(self, other: "SampledFunction") -> complex:
        if other.grid is not self.grid:
            raise InputError("inner product requires a shared grid")
        val = np.sum(self.grid.mu_weights * self.values * np.conj(other.values))
        return complex(val)

    def integral(self) -> complex:
        return complex(np.sum(self.grid.mu_weights * self.values))

    def to_csv(self, path) -> None:
        d = self.grid.dimension
        complex_vals = np.iscomplexobj(self.values)
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            header = [f"x{j+1}" for j in range(d)] + ["mu_weight", "value"]
            if complex_vals:
                header.append("value_imag")
            wr.writerow(header)
            for i in range(len(self.grid)):
                row = [f"{c:.12e}" for c in self.grid.nodes[i]]
                row.append(f"{self.grid.mu_weights[i]:.12e}")
                if complex_vals:
                    row.append(f"{self.values[i].real:.12e}")
                    row.append(f"{self.values[i].imag:.12e}")
                else:
                    row.append(f"{self.values[i]:.12e}")
                wr.writerow(row)

    @staticmethod
    def from_csv(grid: QuadratureGrid, path) -> "SampledFunction":
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            rows = list(rd)
        if len(rows) != len(grid):
            raise InputError("CSV sample count does not match the grid")
        d = grid.dimension
        has_imag = "value_imag" in header
        pts = np.array([[float(c) for c in row[:d]] for row in rows])
        if np.max(np.abs(pts - grid.nodes)) > 1e-9:
            raise InputError("CSV node coordinates do not match the grid")
        if has_imag:
            vals = np.array(
                [float(row[d + 1]) + 1j * float(row[d + 2]) for row in rows]
            )
        else:
            vals = np.array([float(row[d + 1]) for row in rows])
        return SampledFunction(grid, vals)


def sample(grid: QuadratureGrid, fn) -> SampledFunction:
    """Sample a vectorized callable of the node rows onto the grid."""
    if grid.dimension == 1:
        vals = np.asarray(fn(grid.nodes[:, 0]))
    else:
        vals = np.asarray(fn(grid.nodes))
    return SampledFunction(grid, vals)


def grid_selftest(grid: QuadratureGrid, ck_exact: float) -> dict:
    """Quadrature health check: Gaussian mass against its closed form ck_exact."""
    x2 = np.sum(grid.nodes**2, axis=1)
    gauss = float(np.sum(grid.mu_weights * np.exp(-0.5 * x2)))
    return {"gaussian_mass": gauss, "gaussian_defect": abs(gauss - ck_exact) / ck_exact}
