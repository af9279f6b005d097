"""Intertwining measures, the deformed exponential kernel, and weight functions.

The rank-one measure nu_x has the explicit Beta-type density
c (1+t)(1-t^2)^(kappa-1) dt on eta = x t, t in [-1, 1]; product groups take
coordinatewise products.  The kernel E(x, y) is the joint eigenfunction of the
deformed derivatives normalized to E(0, y) = 1, available through three
independent computations (power series, measure quadrature, Bessel closed
form) that cross-validate each other.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as sgamma, i0e, i1e, ive, jv, roots_jacobi

from .errors import CapabilityError, InputError, RangeError
from .grids import tensor_rule
from .reflection import Z2_PRODUCT, ReflectionGroup, RootSystem, canonical_rep

SERIES_BOUND = 200.0


@dataclass(frozen=True)
class OrbitMeasureQuad:
    """Discretized intertwining measure: probability nodes inside conv(G.x)."""

    base_point: np.ndarray
    nodes: np.ndarray  # shape (n, d)
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-10:
            raise InputError("measure weights must sum to 1")
        if np.any(w < -1e-14):
            raise InputError("measure weights must be nonnegative")
        x = np.abs(np.asarray(self.base_point, dtype=float))
        if np.any(np.abs(self.nodes) > x[None, :] + 1e-10):
            raise InputError("nodes must lie in the convex hull of the orbit")


def term_factor(n: int, kappa: float) -> float:
    """Recursion denominator for the rank-one series: n, shifted on odd n."""
    return n + 2.0 * kappa * (n % 2)


def series_coefficients(kappa: float, nmax: int = 220) -> np.ndarray:
    b = np.empty(nmax + 1)
    b[0] = 1.0
    for n in range(1, nmax + 1):
        b[n] = b[n - 1] / term_factor(n, kappa)
    return b


def kernel_series_1d(s, kappa: float) -> np.ndarray:
    """Rank-one kernel E(x, y) as a function of s = x y, by power series."""
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) > SERIES_BOUND):
        raise RangeError(f"series argument exceeds validated bound {SERIES_BOUND}")
    b = series_coefficients(kappa)
    out = np.zeros_like(s)
    power = np.ones_like(s)
    for n in range(b.size):
        term = b[n] * power
        out = out + term
        if np.all(np.abs(term) <= 1e-16 * np.maximum(np.abs(out), 1.0)):
            break
        power = power * s
    return out


def njbessel(nu: float, z) -> np.ndarray:
    """Normalized Bessel function Gamma(nu+1) (2/z)^nu J_nu(z); even in z."""
    z = np.abs(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    small = z < 1e-6
    zs = z[small]
    out[small] = 1.0 - zs**2 / (4.0 * (nu + 1.0)) + zs**4 / (
        32.0 * (nu + 1.0) * (nu + 2.0)
    )
    zl = z[~small]
    out[~small] = sgamma(nu + 1.0) * (2.0 / zl) ** nu * jv(nu, zl)
    return out


def e_minus_i(s, kappa: float) -> np.ndarray:
    """Rank-one kernel at imaginary argument, E(x, -i xi) with s = x xi."""
    s = np.asarray(s, dtype=float)
    if kappa == 0.0:
        return np.exp(-1j * s)
    return njbessel(kappa - 0.5, s) - 1j * s / (2.0 * kappa + 1.0) * njbessel(
        kappa + 0.5, s
    )


def _ive(nu: float, a):
    """ive(nu, a); for orders 0, 1 and 1/2 i0e, i1e or the closed form, 3-30x faster
    (order 3/2's closed form cancels at small a), else from a = 1e9 on its two-term
    expansion (scipy's is NaN from 2^31 on; the expansion errs by < 1e-17 there)."""
    if nu == 0.5:
        return -np.expm1(-2.0 * a) / np.sqrt(2.0 * np.pi * a)
    if nu in (0.0, 1.0):
        return (i0e if nu == 0.0 else i1e)(a)
    big = (1.0 - (4.0 * nu * nu - 1.0) / (8.0 * a)) / np.sqrt(2.0 * np.pi * a)
    return np.where(a > 1e9, big, ive(nu, a))


def scaled_e_even(a, kappa: float) -> np.ndarray:
    """Even part of E(x, y) e^{-|xy|} at a = |x y|:
    Gamma(kappa + 1/2) (2/a)^(kappa - 1/2) ive(kappa - 1/2, a)."""
    a = np.abs(np.asarray(a, dtype=float))
    if kappa == 0.0:
        return 0.5 * (1.0 + np.exp(-2.0 * a))
    # below 1e-6 the Taylor form; the Bessel form sees a floored argument there
    al = np.maximum(a, 1e-6)
    even = sgamma(kappa + 0.5) * (2.0 / al) ** (kappa - 0.5) * _ive(kappa - 0.5, al)
    return np.where(a < 1e-6, np.exp(-a), even)


def scaled_e_real(s, kappa: float) -> np.ndarray:
    """Overflow-safe E(x, y) e^{-|xy|} with s = x y, via scaled Bessel I."""
    s = np.asarray(s, dtype=float)
    if kappa == 0.0:
        return np.exp(s - np.abs(s))
    a = np.abs(s)
    taylor = (1.0 + s / (2.0 * kappa + 1.0)) * np.exp(-a)
    al = np.maximum(a, 1e-6)
    odd = sgamma(kappa + 1.5) * (2.0 / al) ** (kappa + 0.5) * _ive(kappa + 0.5, al)
    even = scaled_e_even(a, kappa)
    return np.where(a < 1e-6, taylor, even + s / (2.0 * kappa + 1.0) * odd)


def kernel_bessel_1d(s, kappa: float) -> np.ndarray:
    """Rank-one kernel for real arguments via the scaled Bessel form."""
    s = np.asarray(s, dtype=float)
    return scaled_e_real(s, kappa) * np.exp(np.abs(s))


def rank_one_measure(kappa: float, x: float, n: int) -> tuple:
    """Nodes and weights of the rank-one intertwining measure on eta = x t."""
    if n < 2:
        raise InputError("need at least two quadrature nodes")
    if kappa == 0.0 or x == 0.0:
        return np.array([x]), np.array([1.0])
    t, w = _jacobi_rule(n, kappa)
    return x * t, w


@lru_cache(maxsize=16)
def _jacobi_rule(n: int, kappa: float) -> tuple:
    """Read-only Gauss-Jacobi nodes and unit-sum weights for the density
    (1+t)(1-t^2)^(kappa-1) = (1-t)^(kappa-1) (1+t)^kappa on [-1, 1]."""
    t, w = roots_jacobi(n, kappa - 1.0, kappa)
    w = w / w.sum()
    t.flags.writeable = w.flags.writeable = False
    return t, w


def nu_quadrature(rs: RootSystem, x) -> OrbitMeasureQuad:
    """Product-group intertwining measure as a tensor quadrature rule, 64 nodes
    per axis."""
    if rs.kind != Z2_PRODUCT:
        raise CapabilityError("explicit measure known only for sign product groups")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rules = [rank_one_measure(float(kap), float(xj), 64) for xj, kap in zip(x, rs.multiplicities)]
    return OrbitMeasureQuad(x, *tensor_rule(*zip(*rules)))


def nu_moments_oracle(kappa: float, nmax: int) -> np.ndarray:
    """Exact moments int t^n dnu for base point 1: n! b_n from the recursion."""
    b = series_coefficients(kappa, nmax)
    return np.array([math.factorial(n) * b[n] for n in range(nmax + 1)])


def dunkl_kernel(rs: RootSystem, x, y):
    """The deformed exponential E(x, y), product over coordinates, by the
    Bessel closed form; batched over points of shape (..., d), and a scalar
    for one pair.

    Real y: positive kernel.  Purely imaginary y (1j * real vector); other
    complex arguments are out of scope.
    """
    if rs.kind != Z2_PRODUCT:
        raise CapabilityError("kernel evaluation requires a sign product group")
    x = np.asarray(x, dtype=float)
    kappas = rs.multiplicities
    if np.iscomplexobj(y):
        y = np.asarray(y)
        if np.max(np.abs(y.real)) > 1e-14:
            raise CapabilityError("complex arguments supported only on i * R^d")
        out = 1.0 + 0.0j
        for j, kap in enumerate(kappas):
            out = out * np.conj(e_minus_i(x[..., j] * y.imag[..., j], float(kap)))
    else:
        y = np.asarray(y, dtype=float)
        out = 1.0
        for j, kap in enumerate(kappas):
            out = out * kernel_bessel_1d(x[..., j] * y[..., j], float(kap))
    return out.item() if out.ndim == 0 else out


def averaged_orbit_measure(rs: RootSystem, group: ReflectionGroup, y) -> OrbitMeasureQuad:
    """The group-averaged measure |G|^-1 sum over g of nu_(g.y)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    all_nodes = []
    all_wts = []
    orbit = group.orbit(y)
    for gy in orbit:
        q = nu_quadrature(rs, gy)
        all_nodes.append(q.nodes)
        all_wts.append(q.weights / len(orbit))
    nodes = np.concatenate(all_nodes, axis=0)
    wts = np.concatenate(all_wts)
    hull = np.max(np.abs(orbit), axis=0)
    return OrbitMeasureQuad(hull, nodes, wts)


def phi_profile(rs: RootSystem, group: ReflectionGroup, xs, y) -> np.ndarray:
    """phi(x, y) evaluated on many points x at once: rows of xs, or its entries
    in rank one.

    Integrates e^{sqrt(1 + A^2)} with A^2 = |y|^2 + |x|^2 - 2<x, eta> against
    the averaged orbit measure; tiny negative radicands are clamped at 0.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        pts = xs[:, None]
    else:
        pts = xs
    y = np.atleast_1d(np.asarray(y, dtype=float))
    q = averaged_orbit_measure(rs, group, y)
    a2 = (y @ y) + np.sum(pts**2, axis=1)[:, None] - 2.0 * pts @ q.nodes.T
    a2 = np.maximum(a2, 0.0)
    return np.exp(np.sqrt(1.0 + a2)) @ q.weights


def phi(rs: RootSystem, group: ReflectionGroup, x, y, lam: float = 1.0) -> float:
    """Pointwise phi_lambda(x, y) = phi_profile(x, y)^lam; lam = 1 reproduces
    the base weight."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    value = float(phi_profile(rs, group, x[None, :], y)[0]) ** lam
    if value < math.e**lam - 1e-9:
        raise InputError("phi value below its analytic floor e^lambda")
    return value


def phi_lemma_defect(rs: RootSystem, group: ReflectionGroup, x, y, y0) -> float:
    """Signed slack of phi(x, y0) <= phi(y, y0) e^{|x+ - y+|} (>= 0 when it holds)."""
    left = phi(rs, group, x, y0)
    right = phi(rs, group, y, y0)
    xp = canonical_rep(group, np.atleast_1d(np.asarray(x, float)))
    yp = canonical_rep(group, np.atleast_1d(np.asarray(y, float)))
    return float(right * np.exp(np.linalg.norm(xp - yp)) - left)
