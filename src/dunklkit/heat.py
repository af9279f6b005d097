"""Free heat semigroup: closed-form kernel, spectral application, and
Gaussian-domination constant fits.

For sign product groups the kernel (Rosler, CMP 192, 1998) is

    K_t(x, y) = kernel_prefactor(t) * prod_j axis_factor(x_j, y_j, t, kappa_j),

with the single normalization kernel_prefactor = 1/(c_k (2t)^(gamma + d/2)),
under which every kernel row has unit weighted mass, and the axis factor
E_kappa(x, y/2t) e^{-(x^2+y^2)/4t} written through the overflow-safe scaled
kernel.  Every kernel evaluation in the package goes through these two;
even_axis_factor is the part of the axis factor even in y.  A grid table is
the prefactor times the Kronecker product of the n x n per-axis tables, built
from axis_factor's pairs at (a, b) and (-a, b), with no formula of their own.
"""

import numpy as np

from .errors import InputError
from .grids import QuadratureGrid, SampledFunction
from .intertwine import scaled_e_even, scaled_e_real
from .reflection import RootSystem, gamma_k, weight, ball_comparison_quantity
from .transform import SpectralMatrix, c_k, multiplier_apply


def kernel_prefactor(rs: RootSystem, t):
    """Time factor 1/(c_k (2t)^(gamma + d/2)) of the kernel; broadcasts over t."""
    expo = gamma_k(rs) + rs.dimension / 2.0
    return 1.0 / (c_k(rs) * (2.0 * np.asarray(t, dtype=float)) ** expo)


def axis_factor(x, y, t, kappa: float, mirror: bool = False):
    """One axis of the kernel, E_kappa(x, y/2t) e^{-(x^2+y^2)/4t}, with the
    exponents recombined so it stays finite at large |x y|/t; broadcasts
    over x, y and t; with mirror, the pair at (x, y) and (-x, y) of one Bessel
    evaluation."""
    e, g = scaled_e_real(x * y / (2.0 * t), kappa, mirror), _gauss(x, y, t)
    return (e[0] * g, e[1] * g) if mirror else e * g


def even_axis_factor(x, y, t, kappa: float):
    """The part of axis_factor even in y (and in x): one Bessel term, taken
    only where the Gaussian is > 0 and x y != 0: elsewhere the factor is the
    Gaussian, exactly, as the scaled Bessel term is finite and 1.0 at 0."""
    a, g = np.asarray(x * y / (2.0 * t)), np.asarray(_gauss(x, y, t))
    live = (g > 0) & (a != 0)
    g[live] *= scaled_e_even(a[live], kappa)
    return g


def _gauss(x, y, t):
    return np.exp(-((np.abs(x) - np.abs(y)) ** 2) / (4.0 * t))


def heat_kernel(rs: RootSystem, t, x, y) -> np.ndarray:
    """Closed-form kernel K_t(x, y), batched over points of shape (..., d)
    and over times t that broadcast against their leading shape."""
    if np.any(np.asarray(t) <= 0):
        raise InputError("time must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    K = kernel_prefactor(rs, t)
    for j, kap in enumerate(rs.multiplicities):
        K = K * axis_factor(x[..., j], y[..., j], t, float(kap))
    # a NaN value fails this test too
    if not np.all(K > 0):
        raise InputError("heat kernel values must be strictly positive")
    return K


def heat_axis_tables(grid: QuadratureGrid, t: float) -> tuple:
    """Prefactor and n x n axis tables (QuadratureGrid.axis_table) of the kernel at t."""
    if t <= 0:
        raise InputError("time must be positive")
    axes = [grid.axis_table(lambda x, y: axis_factor(x, y, t, float(k), mirror=True))
            for k in grid.rs.multiplicities]
    return kernel_prefactor(grid.rs, t), axes


def heat_kernel_matrix(grid: QuadratureGrid, t: float, rows=None) -> np.ndarray:
    """Kernel on all grid node pairs, or on the rows given (an index or slice):
    each entry is the prefactor times its axis-table entries in axis order, so
    any rows are bit for bit those of the full table and of np.kron's chain."""
    c, axes = heat_axis_tables(grid, t)
    index = grid.axis_index if rows is None else grid.axis_index[:, rows]
    K = axes[0] if rows is None and grid.dimension == 1 else axes[0][index[0]]
    K *= c  # in place: in rank one, all rows are the fresh table itself
    for T, i in zip(axes[1:], index[1:]):
        K = (K[:, :, None] * T[i][:, None, :]).reshape(len(i), -1)
    return K


def heat_apply(sm: SpectralMatrix, t: float, f: SampledFunction) -> SampledFunction:
    """Spectral multiplier e^{-t |xi|^2}; the t = 0 case is the identity."""
    if t < 0:
        raise InputError("time must be nonnegative")
    if t == 0.0:
        return f
    return multiplier_apply(sm, np.exp(-t * np.sum(sm.grid.nodes**2, axis=1)), f)


BOUND_FORMS = ("polynomial", "weight_pair", "ball_volume")
BOX = 6.0


def _bound_normalizer(rs: RootSystem, form: str, t, x, y):
    """Denominator-normalizer so K * normalizer <= C e^{-c z} for each form;
    batched over times t of shape (m,) and points x, y of shape (m, d)."""
    if form == "polynomial":
        return t ** (rs.dimension / 2.0 + gamma_k(rs))
    if form == "weight_pair":
        return t ** (rs.dimension / 2.0) * np.maximum(weight(rs, x), weight(rs, y))
    if form == "ball_volume":
        rt = np.sqrt(t)
        return np.maximum(
            ball_comparison_quantity(rs, x, rt),
            ball_comparison_quantity(rs, y, rt),
        )
    raise InputError(f"unknown bound form {form!r}")


def gaussian_bound_report(rs: RootSystem, t_list, n_samples: int = 40, seed: int = 0) -> dict:
    """Fit (C, c) per bound form so K_t * normalizer <= C e^{-c |x+-y+|^2 / t}.

    Each draw fixes (t, z) with z log-uniform in [0.25, 25], then scans a
    deterministic ladder of base points in the positive cone at exact chamber
    distance sqrt(t z); a per-bin upper envelope over z sets the rate c by
    linear fit.  The envelope saturates quickly, so c is stable under sample
    doubling; C is inflated to dominate every evaluation, making (C, c) a
    valid majorant on the sample set.  Strict kernel positivity is tracked
    alongside, including randomly mirrored sign configurations.  The kernel
    and the normalizers are evaluated once over all draws.
    """
    rng = np.random.default_rng(seed)
    d = rs.dimension
    z_lo, z_hi = 0.25, 25.0
    fracs = (0.02, 0.1, 0.3, 0.6, 0.9)
    ts, xs, ys, zs = [], [], [], []
    for _ in range(n_samples):
        t = float(t_list[rng.integers(len(t_list))])
        z = float(np.exp(rng.uniform(np.log(z_lo), np.log(z_hi))))
        r = np.sqrt(t * z)
        u = np.abs(rng.normal(size=d))
        u /= np.linalg.norm(u)
        for frac in fracs:
            xa = frac * (BOX - r * u)
            xs.append(xa)
            ys.append(xa + r * u)
        sx = rng.choice([-1.0, 1.0], size=d)
        sy = rng.choice([-1.0, 1.0], size=d)
        xa = rng.uniform(0.0, 1.0) * (BOX - r * u)
        xs.append(sx * xa)
        ys.append(sy * (xa + r * u))
        ts += [t] * (len(fracs) + 1)
        zs += [z] * (len(fracs) + 1)
    ts, xs, ys, zs = np.array(ts), np.array(xs), np.array(ys), np.array(zs)
    K = heat_kernel(rs, ts, xs, ys)
    report = {
        "min_kernel_value": float(np.min(K)),
        "n_samples": int(n_samples),
        "n_evaluations": len(K),
        "fits": {},
    }
    n_bins = 5
    edges = np.geomspace(z_lo, z_hi, n_bins + 1)
    for form in BOUND_FORMS:
        logs = np.log(K * _bound_normalizer(rs, form, ts, xs, ys))
        bin_z, bin_log = [], []
        for i in range(n_bins):
            m = (zs >= edges[i] * 0.999) & (zs <= edges[i + 1] * 1.001)
            if not m.any():
                continue
            j = int(np.argmax(logs[m]))
            bin_z.append(zs[m][j])
            bin_log.append(logs[m][j])
        slope, _ = np.polyfit(bin_z, bin_log, 1)
        c_fit = max(-float(slope), 1e-6)
        c_big = float(np.exp(np.max(logs + c_fit * zs)))
        report["fits"][form] = {"C": c_big, "c": c_fit}
    return report
