"""Root systems, finite reflection groups, and orbit geometry.

Conventions: every root is normalized to |alpha|^2 = 2, so the reflection in
alpha is x -> x - <x, alpha> alpha.  The weight attached to a root system is
w(x) = prod |<alpha, x>|^(2 k(alpha)) over the positive roots, homogeneous of
degree twice the multiplicity sum.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, CapabilityError

SQRT2 = np.sqrt(2.0)

Z2_PRODUCT = "z2_product"
DIHEDRAL = "dihedral"


@dataclass(frozen=True)
class Root:
    """A positive root with its multiplicity value."""

    vector: np.ndarray
    multiplicity: float

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        object.__setattr__(self, "vector", v)
        if abs(v @ v - 2.0) > 1e-12:
            raise InputError("root must satisfy |alpha|^2 = 2")
        if self.multiplicity < 0:
            raise InputError("multiplicity must be nonnegative")


@dataclass(frozen=True)
class RootSystem:
    dimension: int
    positive_roots: tuple
    kind: str
    order: Optional[int] = None  # dihedral index m, None for sign groups

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError("dimension must be positive")
        for r in self.positive_roots:
            if r.vector.shape != (self.dimension,):
                raise InputError("root dimension mismatch")
        # no positive root may be a positive multiple of another
        for a, b in itertools.combinations(self.positive_roots, 2):
            cross = a.vector @ b.vector
            if abs(abs(cross) - 2.0) < 1e-10 and np.allclose(
                a.vector, np.sign(cross) * b.vector, atol=1e-10
            ):
                raise InputError("duplicate positive root direction")

    @staticmethod
    def z2_product(multiplicities) -> "RootSystem":
        """Sign-flip product group on R^d with per-axis multiplicities."""
        kappas = np.atleast_1d(np.asarray(multiplicities, dtype=float))
        d = kappas.size
        roots = []
        for j, kap in enumerate(kappas):
            v = np.zeros(d)
            v[j] = SQRT2
            roots.append(Root(v, float(kap)))
        return RootSystem(d, tuple(roots), Z2_PRODUCT)

    @staticmethod
    def dihedral(m: int, k_even: float, k_odd: Optional[float] = None) -> "RootSystem":
        """Dihedral symmetry group of the regular m-gon in the plane.

        For odd m all reflection lines form a single orbit and share one
        multiplicity; for even m the two alternating orbits may differ.
        """
        if m < 2:
            raise InputError("dihedral order must be >= 2")
        if m % 2 == 1:
            if k_odd is not None and k_odd != k_even:
                raise InputError("odd dihedral groups have a single root orbit")
            k_odd = k_even
        elif k_odd is None:
            k_odd = k_even
        roots = []
        for j in range(m):
            phi = np.pi * j / m
            v = SQRT2 * np.array([-np.sin(phi), np.cos(phi)])
            roots.append(Root(v, float(k_even if j % 2 == 0 else k_odd)))
        return RootSystem(2, tuple(roots), DIHEDRAL, order=m)

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([r.multiplicity for r in self.positive_roots])

    def root_matrix(self) -> np.ndarray:
        """Positive roots stacked as rows."""
        return np.array([r.vector for r in self.positive_roots])


@dataclass(frozen=True)
class ReflectionGroup:
    elements: tuple
    generated_from: RootSystem

    def __len__(self):
        return len(self.elements)

    def orbit(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([g @ x for g in self.elements])


@dataclass(frozen=True)
class BallEstimate:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-15:
            raise InputError("ball estimate bracket must satisfy lower <= upper")


def reflect(alpha: Root, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != alpha.vector.shape[0]:
        raise InputError("dimension mismatch in reflect")
    return x - np.tensordot(x, alpha.vector, axes=([-1], [0]))[..., None] * alpha.vector


def reflection_matrix(alpha: Root) -> np.ndarray:
    v = alpha.vector
    return np.eye(v.size) - np.outer(v, v)


GROUP_SIZE_CAP = 1024


def generate_group(rs: RootSystem) -> ReflectionGroup:
    """Close the generating reflections into the full matrix group.

    Breadth-first closure with tolerance-based deduplication; raises when the
    closure exceeds GROUP_SIZE_CAP, which signals a misconfigured system.
    """
    d = rs.dimension
    gens = [reflection_matrix(r) for r in rs.positive_roots]
    seen = {}

    def key(m):
        return tuple(np.round(m, 10).ravel())

    frontier = [np.eye(d)]
    seen[key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = g @ m
                k = key(p)
                if k not in seen:
                    if len(seen) >= GROUP_SIZE_CAP:
                        raise InputError(
                            f"group closure exceeded cap {GROUP_SIZE_CAP}; "
                            "system is non-finite or misconfigured"
                        )
                    seen[k] = p
                    nxt.append(p)
        frontier = nxt
    elems = tuple(seen.values())
    for m in elems:
        if np.max(np.abs(m.T @ m - np.eye(d))) > 1e-12:
            raise InputError("group element failed orthogonality check")
    return ReflectionGroup(elems, rs)


def weight(rs: RootSystem, x) -> np.ndarray:
    """The measure density prod |<alpha, x>|^(2 k(alpha)); vectorized over x."""
    x = np.asarray(x, dtype=float)
    scalar_in = x.ndim == 1
    pts = np.atleast_2d(x)
    out = np.ones(pts.shape[0])
    for r in rs.positive_roots:
        if r.multiplicity == 0.0:
            continue
        out = out * np.abs(pts @ r.vector) ** (2.0 * r.multiplicity)
    return float(out[0]) if scalar_in else out


def gamma_k(rs: RootSystem) -> float:
    return float(np.sum(rs.multiplicities))


def canonical_rep(g: ReflectionGroup, x) -> np.ndarray:
    """The orbit element inside the closed fundamental chamber."""
    rs = g.generated_from
    x = np.asarray(x, dtype=float)
    if rs.kind == Z2_PRODUCT:
        return np.abs(x)
    A = rs.root_matrix()
    for m in g.elements:
        y = m @ x
        if np.all(A @ y >= -1e-12):
            return y
    # unreachable for a correctly generated group
    raise CapabilityError("no chamber representative found")


def orbit_distance(g: ReflectionGroup, x, y) -> float:
    xp = canonical_rep(g, x)
    yp = canonical_rep(g, y)
    return float(np.linalg.norm(xp - yp))


def orbit_distance_bruteforce(g: ReflectionGroup, x, y) -> float:
    """min over the whole group of |g.x - y|; oracle for orbit_distance."""
    y = np.asarray(y, dtype=float)
    return float(min(np.linalg.norm(m @ np.asarray(x, float) - y) for m in g.elements))


def ball_comparison_quantity(rs: RootSystem, x, r: float) -> float:
    """r^d prod over all roots of (|<alpha, x>| + r)^k(alpha).

    The product runs over the full (reduced) root set, i.e. each positive root
    and its negative, contributing the multiplicity once per root.
    """
    x = np.asarray(x, dtype=float)
    q = r ** rs.dimension
    for root in rs.positive_roots:
        # alpha and -alpha give equal factors
        q *= (abs(root.vector @ x) + r) ** (2.0 * root.multiplicity)
    return float(q)


BALL_SAMPLES = 40000


def ball_volume_quadrature(rs: RootSystem, x, r: float, seed: int = 0) -> float:
    """Numeric mu_k(B(x, r)); exact antiderivative in d=1, Monte-Carlo over
    BALL_SAMPLES points in d>=2."""
    x = np.asarray(x, dtype=float)
    if rs.dimension == 1:
        kap = rs.positive_roots[0].multiplicity
        c = 2.0**kap / (2.0 * kap + 1.0)

        def anti(y):
            return c * np.sign(y) * np.abs(y) ** (2.0 * kap + 1.0)

        return float(anti(x[0] + r) - anti(x[0] - r))
    rng = np.random.default_rng(seed)
    d = rs.dimension
    u = rng.standard_normal((BALL_SAMPLES, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rad = r * rng.random(BALL_SAMPLES) ** (1.0 / d)
    pts = x[None, :] + rad[:, None] * u
    vol_ball = np.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d
    return float(vol_ball * np.mean(weight(rs, pts)))


def calibrate_ball_constants(rs: RootSystem, seed: int = 0) -> tuple:
    """Fit bracket constants (c, C) so the numeric ball volume sits inside
    c*q <= mu_k(B(x,r)) <= C*q over 60 random centers and radii."""
    rng = np.random.default_rng(seed)
    ratios = []
    for i in range(60):
        x = rng.uniform(-3.0, 3.0, size=rs.dimension)
        r = float(rng.uniform(0.05, 3.0))
        q = ball_comparison_quantity(rs, x, r)
        est = ball_volume_quadrature(rs, x, r, seed=seed + 7 * i + 1)
        ratios.append(est / q)
    ratios = np.array(ratios)
    return float(ratios.min() / 1.05), float(ratios.max() * 1.05)


def ball_volume(rs: RootSystem, x, r: float, calibration: tuple) -> BallEstimate:
    """Two-sided bracket for mu_k(B(x, r)) via the comparison quantity, with
    the constants of calibrate_ball_constants."""
    if r <= 0:
        raise InputError("radius must be positive")
    c_lo, c_hi = calibration
    q = ball_comparison_quantity(rs, x, r)
    return BallEstimate(c_lo * q, c_hi * q)


def unit_ball_cover(x, r: float) -> np.ndarray:
    """Lattice of centers of radius-1 balls covering B(x, r).

    Per axis i the centers are x_i - 2(M+1)/d + (2j-1)/d for j = 1..2(M+1)
    with M = floor(r d / 2); every point of B(x, r) lies within 1 of some
    center, and the count 2^d (M+1)^d is bounded by (2d)^d (r+1)^d.
    """
    if r <= 0:
        raise InputError("radius must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    m_half = int(np.floor(r * d / 2.0)) + 1
    js = np.arange(1, 2 * m_half + 1)
    axis_centers = [x[i] - 2.0 * m_half / d + (2.0 * js - 1.0) / d for i in range(d)]
    grids = np.meshgrid(*axis_centers, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)
