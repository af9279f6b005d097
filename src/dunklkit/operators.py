"""The Dunkl derivative on sampled functions, one n x n factor per axis.

T_j is the partial along axis j plus the reflection difference term
kappa_j (f(x) - f(sigma_j x)) / x_j.  The partial D takes, at each node, the
derivative of the degree-FD_ORDER interpolant on a window of FD_ORDER + 1
nodes, by the barycentric formula (Berrut and Trefethen, SIAM Rev. 46, 2004,
sec. 9).  Both act on coordinate j alone, so on the tensor grid
T_j = I x ... x T x ... x I (Kronecker product, T at slot j) with the one-axis
operator T = D + kappa_j (I - J) / x on the grid's axis rule, J the axis
reversal: the axis is symmetric, so the reflected sample is exact and only the
partial carries stencil error.  T is memoised per (kappa, R, n) and applied
along its axis by kron_apply; the N x N matrix of T_j is never formed.
"""

from functools import lru_cache

import numpy as np

from .errors import InputError
from .grids import QuadratureGrid, SampledFunction, axis_rule, kron_apply
from .transform import SpectralMatrix, dunkl_transform, multiplier_apply

FD_ORDER = 6  # accuracy order of the partial: a centred 7-node stencil


def diff_matrix(xs: np.ndarray) -> np.ndarray:
    """Dense first-derivative matrix on a 1D node set, one window per row,
    centred and one-sided at the edges: D[i, k] = (c_k / c_i) / (x_i - x_k),
    c_k = 1 / prod_{j != k} (x_k - x_j) on the window, D[i, i] = -sum_{k != i} D[i, k]."""
    n = len(xs)
    width = FD_ORDER + 1
    if n < width:
        raise InputError(f"the {width}-node stencil needs at least {width} nodes")
    rows = np.arange(n)[:, None]
    cols = np.clip(rows - width // 2, 0, n - width) + np.arange(width)
    win = xs[cols]
    gaps = win[:, :, None] - win[:, None, :]
    gaps[:, range(width), range(width)] = 1.0  # the product skips j = k
    c = 1.0 / np.prod(gaps, axis=2)
    own = cols == rows
    to_row = xs[:, None] - win
    to_row[own] = np.inf  # 0 at k = i; the diagonal is minus the row sum
    off = c / c[own][:, None] / to_row
    D = np.zeros((n, n))
    D[rows, cols] = off
    np.fill_diagonal(D, -off.sum(axis=1))
    return D


@lru_cache(maxsize=2)  # both axes of a rank-two grid; each entry holds an n x n T
def _axis_derivative(kappa: float, R: float, n_axis: int) -> np.ndarray:
    """T = D + kappa (I - J) / x on the axis rule of (R, n_axis), the second
    term added in place on its two diagonals; read-only."""
    x = axis_rule(R, n_axis)[0]
    T, i = diff_matrix(x), np.arange(n_axis)
    T[i, i] += kappa / x
    T[i, i[::-1]] -= kappa / x
    T.flags.writeable = False
    return T


def dunkl_derivative_matrix(grid: QuadratureGrid, axis: int) -> np.ndarray:
    """The n x n one-axis factor T of the deformed derivative along a
    coordinate axis, memoised per (kappa, R, n); T_axis is T at slot axis."""
    kap = float(grid.rs.multiplicities[axis])
    return _axis_derivative(kap, grid.half_width, grid.n_axis)


def derivative_apply(grid: QuadratureGrid, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """T_axis applied to samples of shape (N, ...), along the node axis."""
    mats = [None] * grid.dimension
    mats[axis] = dunkl_derivative_matrix(grid, axis)
    return kron_apply(mats, values)


def dunkl_derivative(
    grid: QuadratureGrid, f: SampledFunction, axis: int = 0
) -> SampledFunction:
    """Apply the deformed derivative along a coordinate axis."""
    return SampledFunction(grid, derivative_apply(grid, f.values, axis))


def dunkl_laplacian(grid: QuadratureGrid, f: SampledFunction) -> SampledFunction:
    """Sum over axes of the squared deformed derivative."""
    out = np.zeros_like(np.asarray(f.values, dtype=float))
    for j in range(grid.dimension):
        out += derivative_apply(grid, derivative_apply(grid, f.values, j), j)
    return SampledFunction(grid, out)


def spectral_laplacian(sm: SpectralMatrix, f: SampledFunction) -> SampledFunction:
    """Multiplier form -|xi|^2 on the spectral side; reference for the stencil."""
    return multiplier_apply(sm, -np.sum(sm.grid.nodes**2, axis=1), f)


def antisymmetry_defect(
    grid: QuadratureGrid, f: SampledFunction, g: SampledFunction
) -> float:
    """max over axes of |<T_j f, g> + <f, T_j g>| in the weighted inner product."""
    worst = 0.0
    for j in range(grid.dimension):
        lhs = np.sum(grid.mu_weights * derivative_apply(grid, f.values, j) * g.values)
        rhs = np.sum(grid.mu_weights * f.values * derivative_apply(grid, g.values, j))
        worst = max(worst, abs(lhs + rhs))
    return worst


def multiplier_defect(sm: SpectralMatrix, f: SampledFunction) -> float:
    """max over axes of ||F(T_j f) - i xi_j F(f)||_2."""
    F = dunkl_transform(sm, f)
    worst = 0.0
    for j in range(sm.grid.dimension):
        lhs = dunkl_transform(sm, dunkl_derivative(sm.grid, f, j))
        target = 1j * sm.grid.nodes[:, j] * F.values
        defect = SampledFunction(sm.grid, lhs.values - target).norm_l2()
        worst = max(worst, defect)
    return worst
