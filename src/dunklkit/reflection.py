"""The sign-product reflection group Z_2^d, its weight, and orbit geometry.

The one root system is sqrt(2) e_j, one root per axis, each with its own
multiplicity kappa_j; the reflection in e_j flips the sign of x_j.  The
layout is structural: a RootSystem holds only the kappa_j, so no root can
be misplaced, and sign_flips lists the group.  The weight is w(x) =
prod_j |sqrt(2) x_j|^(2 kappa_j), homogeneous of degree twice the
multiplicity sum.

Ball volumes mu_k(B(x, r)) of sign-product groups are exact (ball_volumes):
the rank-one antiderivative, and in ranks two and three a fixed quadrature
over the ball's slices.  They are comparable to the quantity q(x, r) of
ball_comparison_quantity with the closed-form constants of
ball_bracket_constants, whose docstring carries the proof.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, CapabilityError

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)  # hashed by identity: the field is an array
class RootSystem:
    """The roots sqrt(2) e_j of Z_2^d with their multiplicities kappa_j, a
    read-only 1-D array; the roots themselves are implied by the axes."""

    multiplicities: np.ndarray

    def __post_init__(self):
        kappas = np.array(self.multiplicities, dtype=float)
        if kappas.ndim != 1 or kappas.size == 0 or not np.all(kappas >= 0):
            raise InputError("multiplicities must be a nonempty 1-D list of values >= 0")
        kappas.flags.writeable = False
        object.__setattr__(self, "multiplicities", kappas)

    @staticmethod
    def z2_product(multiplicities) -> "RootSystem":
        """Sign-flip product group on R^d with per-axis multiplicities."""
        return RootSystem(np.atleast_1d(np.asarray(multiplicities, dtype=float)))

    @property
    def dimension(self) -> int:
        return self.multiplicities.size


def sign_flips(d: int) -> np.ndarray:
    """The 2^d elements of Z_2^d as rows of exact +-1, ordered by the number
    of flipped axes and then as itertools.combinations lists them."""
    flips = [a for n in range(d + 1) for a in itertools.combinations(range(d), n)]
    return np.array([[-1.0 if j in a else 1.0 for j in range(d)] for a in flips])


def weight(rs: RootSystem, x) -> np.ndarray:
    """The measure density prod_j |sqrt(2) x_j|^(2 kappa_j); vectorized over x."""
    x = np.asarray(x, dtype=float)
    scalar_in = x.ndim == 1
    pts = np.atleast_2d(x)
    out = np.ones(pts.shape[0])
    for j, kap in enumerate(rs.multiplicities):
        if kap == 0.0:
            continue
        out = out * np.abs(SQRT2 * pts[:, j]) ** (2.0 * kap)
    return float(out[0]) if scalar_in else out


def gamma_k(rs: RootSystem) -> float:
    return float(np.sum(rs.multiplicities))


def orbit_distance(x, y) -> float:
    """min over the group of |g.x - y|: the distance of the chamber
    representatives |x| and |y|."""
    return float(np.linalg.norm(np.abs(np.asarray(x, float)) - np.abs(np.asarray(y, float))))


def orbit_distance_bruteforce(x, y) -> float:
    """min over every sign flip s of |s x - y|; oracle for orbit_distance."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(min(np.linalg.norm(s * x - y) for s in sign_flips(x.size)))


def ball_comparison_quantity(rs: RootSystem, x, r):
    """r^d prod over all roots of (|<alpha, x>| + r)^k(alpha).

    The product runs over the full (reduced) root set, i.e. each positive root
    and its negative, contributing the multiplicity once per root.  Centres x
    of shape (..., d) and radii r broadcast against x[..., 0]; a float for one
    ball.
    """
    x = np.asarray(x, dtype=float)
    q = r ** rs.dimension
    for j, kap in enumerate(rs.multiplicities):
        # alpha and -alpha give equal factors
        q = q * (np.abs(SQRT2 * x[..., j]) + r) ** (2.0 * kap)
    return float(q) if np.ndim(q) == 0 else q


def _axis_mass(kap: float, x, s):
    """mu of the interval [x - s, x + s] under the axis density
    (sqrt(2)|y|)^(2 kap): a difference of its antiderivative."""
    c = 2.0**kap / (2.0 * kap + 1.0)

    def anti(y):
        return c * np.sign(y) * np.abs(y) ** (2.0 * kap + 1.0)

    return anti(x + s) - anti(x - s)


def _tanh_sinh(half: int) -> tuple:
    """Read-only nodes s in (0, 1) and weights of the tanh-sinh rule on
    [0, 1], s = (1 + tanh(pi/2 sinh t)) / 2 at 2 half + 1 steps t in [-3, 3].
    Its nodes cluster doubly exponentially at both ends, so an integrand with
    |.|^(2 kappa) or square-root behaviour there keeps the rule's accuracy.
    Scalar math: numpy's sinh, cosh and exp loops would add their code pages
    to the peak RSS of every run."""
    h = 3.0 / half
    u = [(h * k, 0.5 * math.pi * math.sinh(h * k)) for k in range(-half, half + 1)]
    s = np.array([1.0 / (1.0 + math.exp(-2.0 * v)) for _, v in u])
    w = np.array([h * 0.25 * math.pi * math.cosh(t) / math.cosh(v) ** 2 for t, v in u])
    s.flags.writeable = w.flags.writeable = False
    return s, w


# 61 points per piece: 2e-13 relative to adaptive quadrature at 1e-13 in
# rank two, also for balls whose breaks sit 1e-12 from a piece's end
BALL_RULE = _tanh_sinh(30)
# largest rank of an exact ball volume: a rank-three ball takes 4.5e4 points
BALL_RANK_CAP = 3
# points per batch of balls, which keeps each transient array near 1 MiB
BALL_BATCH = 2**17


def cube_volumes(rs: RootSystem, X, S) -> np.ndarray:
    """mu_k of the cubes prod_j [x_j - s, x_j + s] for centres X (m, d) and
    half-sides S (m,): a product of the axes' antiderivative differences."""
    kappas = rs.multiplicities
    X = np.asarray(X, dtype=float)
    out = _axis_mass(kappas[0], X[:, 0], S)
    for j in range(1, rs.dimension):
        out = out * _axis_mass(kappas[j], X[:, j], S)
    return out


def _ball(kappas, A, R) -> np.ndarray:
    """mu_k(B(a, r)) for centres A >= 0 (m, d) and radii R (m,), by the
    recursion over axis 1 (see ball_volumes)."""
    if A.shape[1] == 1:
        return _axis_mass(kappas[0], A[:, 0], R)
    m, (s, w) = A.shape[0], BALL_RULE
    # |a_j| / r clipped to 1; 0 for the empty slice at u = 1 of an inner level
    ratio = np.minimum(A, R[:, None]) / np.maximum(R[:, None], np.finfo(float).tiny)
    ends = np.concatenate(
        [np.zeros((m, 1)), ratio[:, :1], np.sqrt(1.0 - ratio[:, 1:] ** 2), np.ones((m, 1))],
        axis=1,
    )
    ends.sort(axis=1)
    lo, width = ends[:, :-1, None], np.diff(ends, axis=1)[:, :, None]
    u = lo + width * s  # (m, d + 1 pieces, nodes)
    ru, rho = R[:, None, None] * u, R[:, None, None] * np.sqrt((1.0 - u) * (1.0 + u))
    a1, k1 = A[:, :1, None], kappas[0]
    w1 = 2.0**k1 * (np.abs(a1 + ru) ** (2.0 * k1) + np.abs(a1 - ru) ** (2.0 * k1))
    inner = _ball(kappas[1:], np.repeat(A[:, 1:], u[0].size, axis=0), rho.ravel())
    return R * np.sum(width * w * w1 * inner.reshape(rho.shape), axis=(1, 2))


def ball_volumes(rs: RootSystem, X, R) -> np.ndarray:
    """Exact mu_k(B(x, r)) for centres X (m, d) and radii R (m,) of a
    sign-product group of rank at most BALL_RANK_CAP.

    Rank one is the difference of the axis antiderivative.  Rank d peels off
    axis 1: with y_1 = x_1 + r u, the slice of the ball is a ball of radius
    r sqrt(1 - u^2) about x', so

        mu_d(x, r) = r int_{-1}^{1} w_1(x_1 + r u) mu_{d-1}(x', r sqrt(1 - u^2)) du

    (the polar form in u = sin t).  It is folded onto u in [0, 1] (mu is even
    in every coordinate) and split where the integrand is not smooth:
    r u = |x_1| and r sqrt(1 - u^2) = |x_j|, j >= 2.  Every piece takes the
    tanh-sinh rule BALL_RULE, which absorbs the |.|^(2 kappa) behaviour at
    the breaks and the square root at u = 1.  Balls go through in batches of
    about BALL_BATCH points.
    """
    kappas = rs.multiplicities
    d = rs.dimension
    if d > BALL_RANK_CAP:
        raise CapabilityError(f"exact ball volumes stop at rank {BALL_RANK_CAP}, got {d}")
    A = np.abs(np.asarray(X, dtype=float)).reshape(-1, d)
    R = np.broadcast_to(np.asarray(R, dtype=float), A.shape[:1])
    if np.any(~(R > 0)):
        raise InputError("radius must be positive")
    points = math.prod((k + 1) * BALL_RULE[0].size for k in range(2, d + 1))
    step = max(1, BALL_BATCH // points)
    return np.concatenate(
        [_ball(kappas, A[i:i + step], R[i:i + step]) for i in range(0, A.shape[0], step)]
    )


def ball_bracket_constants(rs: RootSystem) -> tuple:
    """(c, C) with c q <= mu_k(B(x, r)) <= C q for every ball of a sign-product
    group, q = ball_comparison_quantity: c = d^(-d/2 - gamma) / prod_j
    (2 kappa_j + 1) and C = 2^(d + gamma).

    Proof.  B(x, r) lies between the cubes of half-sides r / sqrt(d) and r
    about x.  On axis j (a = |x_j|, kappa = kappa_j) a cube of half-side s has
    the factor 2^kappa I, I = int_{a-s}^{a+s} |y|^(2 kappa) dy, and q the factor
    r (sqrt(2) a + r)^(2 kappa).  I <= 2 s (a + s)^(2 kappa), and I is at least
    its part over [a, a + s], which is at least s (a + s)^(2 kappa) / (2 kappa
    + 1) as a^(2 kappa + 1) <= a (a + s)^(2 kappa).  Upper, s = r: a + r <=
    sqrt(2) a + r gives at most 2^(1 + kappa) times q's factor.  Lower, s = r /
    sqrt(d): sqrt(2) a + r <= sqrt(2 d) (a + s) gives at least d^(-1/2 - kappa)
    / (2 kappa + 1) times it.  C is attained at kappa = 0 in rank one.
    """
    kappas = rs.multiplicities
    d, gamma = rs.dimension, float(kappas.sum())
    return d ** (-d / 2.0 - gamma) / float(np.prod(2.0 * kappas + 1.0)), 2.0 ** (d + gamma)


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
