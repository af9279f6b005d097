"""Symmetric quadrature grids for the weighted measure and sampled functions.

A grid is one axis rule, a composite Gauss-Legendre rule on [-R, R] that is
ascending, symmetric under x -> -x and avoids zero, shared by every axis and
tensorized in row-major order (tensor_rule).  The layout is stated once:
node m has coordinate axis[axis_index[j, m]] on axis j, so per-axis tables
and operators lift to the grid by index gathers or Kronecker products, and
the negation x -> -x is the reversed node order, an exact permutation.
So is the reflection x_j -> -x_j, axis j of the nodes as an (n,) * d array
reversed; a table that commutes with it splits into parity blocks.
Per-axis kernel tables (axis_table) of an f symmetric and even under the joint
sign flip take the pairs f(a, b), f(-a, b) at a, b > 0, which give all.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError
from .reflection import RootSystem, weight


_legendre = lru_cache(maxsize=8)(leggauss)  # the rule on [-1, 1] that each R scales


@lru_cache(maxsize=16)
def axis_rule(R: float, n_axis: int) -> tuple:
    """Ascending, symmetric, zero-avoiding Gauss-Legendre rule on [-R, R];
    the arrays are read-only, as every call with the same arguments shares
    them."""
    if n_axis % 2 != 0 or n_axis < 2:
        raise InputError("per-axis node count must be even and >= 2")
    if R <= 0:
        raise InputError("half-width must be positive")
    xg, wg = _legendre(n_axis // 2)
    xp = 0.5 * R * (xg + 1.0)
    wp = 0.5 * R * wg
    x = np.concatenate([-xp[::-1], xp])
    w = np.concatenate([wp[::-1], wp])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def tensor_rule(node_sets, weight_sets) -> tuple:
    """Row-major tensor product of one rule per axis: nodes (N, d), weights (N,)."""
    mesh = np.meshgrid(*node_sets, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    return nodes, reduce(np.multiply.outer, weight_sets).ravel()


# rows of an N x N table that a check reads at once, holding no second table
ROW_BLOCK = 128


def kron_apply(mats, values: np.ndarray) -> np.ndarray:
    """(mats[0] x ... x mats[d-1]) @ values without forming the Kronecker
    product (Van Loan, JCAM 123, 2000): values, (n**d, ...) in row-major node
    order, is viewed as (n**j, n, rest) and factor j multiplies its middle
    axis, one batched matmul per axis.  Factors are n x n; None is the
    identity."""
    n = next(M.shape[1] for M in mats if M is not None)
    values = np.asarray(values)
    x = values
    for j, M in enumerate(mats):
        if M is not None:
            x = np.matmul(M, x.reshape(n**j, n, -1))
    return x.reshape(values.shape)


@dataclass(frozen=True, eq=False)  # hashed by identity: the fields are arrays
class QuadratureGrid:
    rs: RootSystem
    half_width: float
    axis: np.ndarray  # (n,) ascending symmetric axis rule, shared by every axis
    nodes: np.ndarray  # (N, d) = tensor_rule of d copies of axis
    mu_weights: np.ndarray

    def __len__(self):
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.rs.dimension

    @property
    def n_axis(self) -> int:
        return self.axis.size

    @property
    def axis_index(self) -> np.ndarray:
        """(d, N): axis_index[j, m] indexes node m's coordinate j in axis."""
        return np.indices((self.n_axis,) * self.dimension).reshape(self.dimension, -1)

    @property
    def negation_perm(self) -> np.ndarray:
        """Node permutation of x -> -x: the axis is symmetric, so it reverses
        every axis index, hence the row-major node order."""
        return np.arange(len(self))[::-1]

    def axis_table(self, fn) -> np.ndarray:
        """n x n table of f(a, b) on the axis rule, f(a, b) = f(b, a) = f(-a, -b)
        bit for bit (as any f of a b, |a| and |b| is): fn(a, b), called once on
        the unordered pairs of the positive half-axis xp, returns f at (a, b)
        and at (-a, b), each written to its blocks of one n x n array."""
        h = self.n_axis // 2
        xp = self.axis[h:]
        iu, ju = np.triu_indices(h)
        P, M = fn(xp[iu], xp[ju])
        T = np.empty((self.n_axis, self.n_axis), dtype=P.dtype)
        # T[h + i, h + j] = f(xp_i, xp_j) and T[h - 1 - i, h + j] = f(-xp_i, xp_j)
        for block, vals in ((T[h:, h:], P), (T[h - 1 :: -1, h:], M)):
            block[iu, ju] = block[ju, iu] = vals
        T[:h, :h] = T[h:, h:][::-1, ::-1]
        T[h:, :h] = T[:h, h:].T
        return T

    def mirror_axes(self, a: np.ndarray) -> list:
        """Axes j with a = R_j a bit for bit for node samples a (N,), R_j the
        reflection x_j -> -x_j."""
        x = a.reshape((self.n_axis,) * self.dimension)
        return [j for j in range(self.dimension) if np.array_equal(x, np.flip(x, j))]

    def interior_mask(self, fraction: float = 0.8) -> np.ndarray:
        """Nodes with every coordinate inside the central fraction of [-R, R]."""
        return np.all(np.abs(self.nodes) <= fraction * self.half_width, axis=1)


def build_grid(rs: RootSystem, R: float, n_axis: int) -> QuadratureGrid:
    ax, aw = axis_rule(R, n_axis)
    nodes, leb = tensor_rule([ax] * rs.dimension, [aw] * rs.dimension)
    return QuadratureGrid(rs, float(R), ax, nodes, leb * weight(rs, nodes))


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

    def inner(self, other: "SampledFunction") -> complex:
        if other.grid is not self.grid:
            raise InputError("inner product requires a shared grid")
        val = np.sum(self.grid.mu_weights * self.values * np.conj(other.values))
        return complex(val)

    def integral(self) -> complex:
        return complex(np.sum(self.grid.mu_weights * self.values))

    def to_csv(self, path) -> None:
        """Rows x1..xd, mu_weight, value; InputError for complex samples."""
        if np.iscomplexobj(self.values):
            raise InputError("CSV samples must be real")
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(_csv_header(self.grid.dimension))
            for node, mu, v in zip(self.grid.nodes, self.grid.mu_weights, self.values):
                wr.writerow([f"{c:.12e}" for c in (*node, mu, v)])

    @staticmethod
    def from_csv(grid: QuadratureGrid, path) -> "SampledFunction":
        """Samples from a CSV of to_csv's columns on grid's nodes: InputError
        for any other header or row width, another row count or other nodes."""
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, [])
            rows = list(rd)
        d, want = grid.dimension, _csv_header(grid.dimension)
        if header != want:
            raise InputError(f"CSV header must be {','.join(want)}, not {','.join(header)}")
        if any(len(row) != d + 2 for row in rows):
            raise InputError(f"CSV rows must have {d + 2} columns")
        if len(rows) != len(grid):
            raise InputError("CSV sample count does not match the grid")
        pts = np.array([[float(c) for c in row[:d]] for row in rows])
        if np.max(np.abs(pts - grid.nodes)) > 1e-9:
            raise InputError("CSV node coordinates do not match the grid")
        return SampledFunction(grid, np.array([float(row[d + 1]) for row in rows]))


def _csv_header(d: int) -> list:
    return [f"x{j + 1}" for j in range(d)] + ["mu_weight", "value"]


def grid_selftest(grid: QuadratureGrid, ck_exact: float) -> dict:
    """Quadrature health check: Gaussian mass against its closed form ck_exact."""
    x2 = np.sum(grid.nodes**2, axis=1)
    gauss = float(np.sum(grid.mu_weights * np.exp(-0.5 * x2)))
    return {"gaussian_mass": gauss, "gaussian_defect": abs(gauss - ck_exact) / ck_exact}
