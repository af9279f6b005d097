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

from .errors import CapabilityError, InputError, RangeError
from .grids import tensor_rule
from .reflection import RootSystem, orbit_distance, sign_flips

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


# The kernels are normalized Bessel functions of order kappa -+ 1/2 (Rosler, CMP
# 192, 1998), each one fixed rule per range of the argument with its term count
# set at the range's edge: a value never depends on the rest of its array.
KAPPA_MAX = 10.0  # the largest multiplicity the oracle tests cover
_TAIL = 1e-17  # size, relative to the sum, of the first term left out at an edge


@lru_cache(maxsize=32)
def _power_terms(nu: float, sign: float, edge: float) -> tuple:
    """sum_k (sign (a/2)^2)^k / (k! (nu+1)_k) for a < edge as sum_k terms[k]
    y^(2k), y = a scale < 1 exact (scale a power of 2), up to the first term
    below _TAIL at the edge.  RangeError unless -1 < nu <= KAPPA_MAX + 1/2."""
    if not -1.0 < nu <= KAPPA_MAX + 0.5:
        raise RangeError(f"Bessel order {nu} outside (-1, {KAPPA_MAX + 0.5}]")
    scale = 2.0 ** -math.ceil(math.log2(edge))
    terms, term, total = [1.0], 1.0, 1.0
    while term > _TAIL * total:
        k = len(terms)
        terms.append(terms[-1] * sign * 0.25 / (scale * scale * k * (nu + k)))
        term *= 0.25 * edge * edge / (k * (nu + k))
        total += term
    return tuple(terms), scale


@lru_cache(maxsize=32)
def _hankel_terms(nu: float, edge: float) -> tuple:
    """a_k(nu) = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (8j) of the Hankel
    expansions (DLMF 10.17.5, 10.40.1), up to the first with |a_k| edge^-k
    below _TAIL; for z >= edge >= nu^2 the terms fall from there on."""
    a = [1.0]
    while abs(a[-1]) * edge ** (1 - len(a)) >= _TAIL:
        k = len(a)
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return tuple(a)


def _horner(c, x, even=False) -> np.ndarray:
    """sum_k c[k] x^k, or with even, sum_k c[k] x^(2k) (x is not squared first,
    which would round it once for every term)."""
    out = np.full_like(x, c[-1])
    for ck in c[-2::-1]:
        out *= x
        if even:
            out *= x
        out += ck
    return out


@lru_cache(maxsize=16)
def _miller_terms(nu: float, edge: float) -> tuple:
    """The least order top with top arccosh(top/edge) - sqrt(top^2 - edge^2) >=
    36, so that J_top / Y_top < e^-72 below the edge, and norm[k] = (mu + 2k)
    Gamma(mu + k) / k! of (z/2)^mu = sum_k norm[k] J_{mu+2k}(z) (DLMF 10.23)."""
    top = math.ceil(edge)
    while top * math.acosh(top / edge) - math.sqrt(top * top - edge * edge) < 36.0:
        top += 1
    mu = nu - math.floor(nu)
    g = math.gamma(mu + 1.0)
    norm = [g]
    for k in range(1, top // 2 + 1):
        norm.append((mu + 2 * k) * g)  # g = Gamma(mu + k) / k!
        g *= (mu + k) / (k + 1)
    return top, tuple(norm)


def _miller(nu: float, edge: float, z) -> np.ndarray:
    """Gamma(nu+1) (2/z)^nu J_nu(z) for 2 <= z < edge by Miller's recurrence
    J_{m-1} = (2m/z) J_m - J_{m+1} down from J_top = 1e-280 (it grows by top! <
    1e298 at most), normalized by the sum of _miller_terms."""
    top, norm = _miller_terms(nu, edge)
    n = math.floor(nu)
    mu, inv = nu - n, 2.0 / z
    prev, cur, total = np.zeros_like(z), np.full_like(z, 1e-280), np.zeros_like(z)
    for m in range(top, min(n, 0) - 1, -1):  # cur is J_{mu+m} up to a factor
        if m == n:
            want = cur
        if m >= 0 and m % 2 == 0:
            total += norm[m // 2] * cur
        prev, cur = cur, (mu + m) * inv * cur - prev
    return math.gamma(nu + 1.0) * inv**n * want / total


def njbessel(nu: float, z) -> np.ndarray:
    """Normalized Bessel function Gamma(nu+1) (2/z)^nu J_nu(z), even in z, for
    -1 < nu <= KAPPA_MAX + 1/2: the power series below z = 2, _miller below
    max(25, nu^2), and from there J = Re H^(1), by the Hankel expansion of
    H^(1) (DLMF 10.17.5) with e^{i z} taken whole (z - phase would round)."""
    terms, scale = _power_terms(nu, -1.0, 2.0)
    z = np.abs(np.asarray(z, dtype=float))
    edge = max(25.0, nu * nu)
    out = np.empty_like(z)
    low, high = z < 2.0, z >= edge
    mid = ~(low | high)
    out[low] = _horner(terms, z[low] * scale, even=True)
    out[mid] = _miller(nu, edge, z[mid])
    zh = z[high]
    h = _horner(_hankel_terms(nu, edge), 1j / zh) * np.exp(-0.5j * math.pi * (nu + 0.5))
    const = math.gamma(nu + 1.0) * 2.0**nu * math.sqrt(2.0 / math.pi)
    out[high] = const * zh ** (-nu - 0.5) * (np.cos(zh) * h.real - np.sin(zh) * h.imag)
    return out


def scaled_nibessel(nu: float, a) -> np.ndarray:
    """Normalized, scaled Bessel function Gamma(nu+1) (2/a)^nu e^{-a} I_nu(a),
    even in a, for -1 < nu <= KAPPA_MAX + 1/2: the series of positive terms
    below max(30, 2 nu^2), and from there the Hankel expansion (DLMF 10.40.1)."""
    edge = max(30.0, 2.0 * nu * nu)
    terms, scale = _power_terms(nu, 1.0, edge)
    a = np.abs(np.asarray(a, dtype=float))
    out = np.empty_like(a)
    low = a < edge
    al, ah = a[low], a[~low]
    out[low] = _horner(terms, al * scale, even=True) * np.exp(-al)
    const = math.gamma(nu + 1.0) * 2.0**nu / math.sqrt(2.0 * math.pi)
    out[~low] = const * ah ** (-nu - 0.5) * _horner(_hankel_terms(nu, edge), -1.0 / ah)
    return out


def e_minus_i(s, kappa: float) -> np.ndarray:
    """Rank-one kernel at imaginary argument, E(x, -i xi) with s = x xi."""
    s = np.asarray(s, dtype=float)
    if kappa == 0.0:
        return np.exp(-1j * s)
    return njbessel(kappa - 0.5, s) - 1j * s / (2.0 * kappa + 1.0) * njbessel(
        kappa + 0.5, s
    )


def scaled_e_even(a, kappa: float) -> np.ndarray:
    """Even part of E(x, y) e^{-|xy|} at a = |x y|: scaled_nibessel(kappa - 1/2, a)."""
    a = np.abs(np.asarray(a, dtype=float))
    if kappa == 0.0:
        return 0.5 * (1.0 + np.exp(-2.0 * a))
    return scaled_nibessel(kappa - 0.5, a)


def scaled_e_real(s, kappa: float, mirror: bool = False):
    """Overflow-safe E(x, y) e^{-|xy|} with s = x y, via scaled Bessel I; with
    mirror, the pair at s and -s, even + odd and even - odd of one evaluation."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    if kappa == 0.0:
        return (np.exp(s - a), np.exp(-s - a)) if mirror else np.exp(s - a)
    even = scaled_e_even(a, kappa)
    odd = s / (2.0 * kappa + 1.0) * scaled_nibessel(kappa + 0.5, a)
    return (even + odd, even - odd) if mirror else even + odd


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
    (1+t)(1-t^2)^(kappa-1) = (1-t)^(kappa-1) (1+t)^kappa on [-1, 1], kappa > 0, by
    Golub-Welsch (Math. Comp. 23, 1969): eigenvalues and squared first
    eigenvector components of the Jacobi matrix, whose first diagonal entry
    is taken in closed form (the general one is 0/0 at kappa = 1/2)."""
    k = np.arange(1, n)
    s = 2.0 * k + 2.0 * kappa - 1.0  # 2k + alpha + beta
    diag = np.concatenate([[1.0 / (2.0 * kappa + 1.0)], (2.0 * kappa - 1.0) / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * (k + kappa - 1.0) * (k + kappa) * (s - k) / (s * s * (s + 1.0) * (s - 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = v[0] ** 2 / (v[0] @ v[0])
    t.flags.writeable = w.flags.writeable = False
    return t, w


def nu_quadrature(rs: RootSystem, x) -> OrbitMeasureQuad:
    """Product-group intertwining measure as a tensor quadrature rule, 64 nodes
    per axis."""
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


def averaged_orbit_measure(rs: RootSystem, y) -> OrbitMeasureQuad:
    """The group-averaged measure |G|^-1 sum over g of nu_(g.y), the orbit
    listed in the order of sign_flips."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    all_nodes = []
    all_wts = []
    orbit = sign_flips(y.size) * y
    for gy in orbit:
        q = nu_quadrature(rs, gy)
        all_nodes.append(q.nodes)
        all_wts.append(q.weights / len(orbit))
    nodes = np.concatenate(all_nodes, axis=0)
    wts = np.concatenate(all_wts)
    hull = np.max(np.abs(orbit), axis=0)
    return OrbitMeasureQuad(hull, nodes, wts)


def phi_profile(rs: RootSystem, xs, y) -> np.ndarray:
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
    q = averaged_orbit_measure(rs, y)
    a2 = (y @ y) + np.sum(pts**2, axis=1)[:, None] - 2.0 * pts @ q.nodes.T
    a2 = np.maximum(a2, 0.0)
    return np.exp(np.sqrt(1.0 + a2)) @ q.weights


def phi(rs: RootSystem, x, y, lam: float = 1.0) -> float:
    """Pointwise phi_lambda(x, y) = phi_profile(x, y)^lam; lam = 1 reproduces
    the base weight."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    value = float(phi_profile(rs, x[None, :], y)[0]) ** lam
    if value < math.e**lam - 1e-9:
        raise InputError("phi value below its analytic floor e^lambda")
    return value


def phi_lemma_defect(rs: RootSystem, x, y, y0) -> float:
    """Signed slack of phi(x, y0) <= phi(y, y0) e^{|x+ - y+|} (>= 0 when it holds)."""
    left = phi(rs, x, y0)
    right = phi(rs, y, y0)
    return float(right * np.exp(orbit_distance(x, y)) - left)
