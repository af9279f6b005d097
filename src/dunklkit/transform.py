"""Spectral transform on weighted grids, held as per-axis factors: forward and
inverse maps, Plancherel checks, radial translation, and weighted convolution.

The forward map sends samples f(x_m) to c^-1 sum_m E(x_m, -i xi_n) f(x_m) w_m
on the same node set; inversion is the forward map followed by argument
negation, which the sign-symmetric grid realizes as an exact permutation.
For a sign product group the kernel, the weights and c factor over the axes,
so the forward map is F_1 x ... x F_d with F_j the rank-one forward matrix of
axis j, formed from the axis's kernel table (memoised per (kappa, R, n)) and
applied by kron_apply; the N x N matrix is never formed.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .grids import QuadratureGrid, SampledFunction, build_grid, kron_apply
from .intertwine import e_minus_i, nu_quadrature
from .reflection import RootSystem


def c_k(rs: RootSystem) -> float:
    """Gaussian mass of the weighted measure, int e^{-|x|^2/2} dmu."""
    out = 1.0
    for kap in rs.multiplicities:
        out *= 2.0 ** (2.0 * float(kap) + 0.5) * math.gamma(float(kap) + 0.5)
    return float(out)


@lru_cache(maxsize=8)
def _axis_spectral(kappa: float, R: float, n_axis: int) -> tuple:
    """Kernel table E(x_a, -i xi_b), mu-weights and c_k of the rank-one grid
    of one axis; memoised per (kappa, R, n_axis), read-only."""
    grid = build_grid(RootSystem.z2_product([kappa]), R, n_axis)
    # E(-x, -i y) is the conjugate of E(x, -i y)
    E = grid.axis_table(lambda x, y: (e := e_minus_i(x * y, kappa), e.conj()))
    E.flags.writeable = grid.mu_weights.flags.writeable = False
    return E, grid.mu_weights, c_k(grid.rs)


@dataclass(frozen=True, eq=False)  # hashed by identity: the fields are arrays
class SpectralMatrix:
    """The transform on a grid as one n x n forward factor per axis."""

    grid: QuadratureGrid
    factors: np.ndarray  # (d, n, n): axis j's forward matrix, row b at xi_b
    ck: float


def build_spectral_matrix(grid: QuadratureGrid) -> SpectralMatrix:
    """The per-axis forward factors (E_j w_j).T / c_j of the transform."""
    tables = [_axis_spectral(float(k), grid.half_width, grid.n_axis) for k in grid.rs.multiplicities]
    factors = np.stack([(E * w[:, None]).T / c for E, w, c in tables])
    factors.flags.writeable = False
    return SpectralMatrix(grid, factors, c_k(grid.rs))


def dunkl_transform(sm: SpectralMatrix, f: SampledFunction) -> SampledFunction:
    if f.grid is not sm.grid:
        raise InputError("sample grid does not match the transform grid")
    return SampledFunction(sm.grid, kron_apply(sm.factors, f.values))


def inverse_transform(sm: SpectralMatrix, g: SampledFunction) -> SampledFunction:
    if g.grid is not sm.grid:
        raise InputError("sample grid does not match the transform grid")
    out = kron_apply(sm.factors, g.values)[sm.grid.negation_perm]
    return SampledFunction(sm.grid, out)


def parseval_defect(
    sm: SpectralMatrix, f: SampledFunction, g: SampledFunction
) -> float:
    lhs = f.inner(g)
    rhs = dunkl_transform(sm, f).inner(dunkl_transform(sm, g))
    return float(abs(lhs - rhs))


def translate_radial(grid: QuadratureGrid, x, f_radial) -> SampledFunction:
    """Generalized translation of a radial profile to base point x.

    Evaluates the profile at sqrt(|y|^2 + |x|^2 + 2 <y, eta>) averaged over
    the intertwining measure of x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q = nu_quadrature(grid.rs, x)
    vals, step = [], max(1, 2**16 // len(q.weights))
    for lo in range(0, len(grid), step):  # blocks of 2^16 entries (512 KiB) stay in L2
        y = grid.nodes[lo : lo + step]
        arg2 = np.sum(y**2, axis=1)[:, None] + (x @ x) + 2.0 * (y @ q.nodes.T)
        vals.append(f_radial(np.sqrt(np.maximum(arg2, 0.0))) @ q.weights)
    return SampledFunction(grid, np.concatenate(vals))


def multiplier_apply(sm: SpectralMatrix, m: np.ndarray, f: SampledFunction) -> SampledFunction:
    """The spectral multiplier F^-1(m F f), m sampled on the nodes; real
    samples when f and m are real."""
    out = inverse_transform(sm, SampledFunction(sm.grid, dunkl_transform(sm, f).values * m))
    if np.iscomplexobj(f.values) or np.iscomplexobj(m):
        return out
    return SampledFunction(sm.grid, out.values.real)


def convolve(
    sm: SpectralMatrix, f: SampledFunction, g: SampledFunction
) -> SampledFunction:
    """Weighted convolution via the product rule on the spectral side."""
    return multiplier_apply(sm, dunkl_transform(sm, g).values, f)


def refinement_defect_slope(rs: RootSystem, R: float, n_list, probe) -> float:
    """log-log slope of a defect functional across per-axis refinements."""
    defects = []
    for n in n_list:
        grid = build_grid(rs, R, n)
        sm = build_spectral_matrix(grid)
        defects.append(max(probe(sm), 1e-16))
    ln_n = np.log(np.asarray(n_list, dtype=float))
    ln_d = np.log(np.asarray(defects))
    slope = np.polyfit(ln_n, ln_d, 1)[0]
    return float(-slope)
