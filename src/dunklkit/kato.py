"""Kato-class diagnostics for potentials: definitional moduli (classical and
orbit-distance forms, Lebesgue measure), the heat-semigroup characterization,
resolvent decay, the growth bound, and kernel smoothing norms.  All but the
smoothing norms are rank one: the moduli integrate over the line, and classify
and the heat leg refuse a system of another rank with CapabilityError.

The heat characterization has one integrand, _flow_density, which sums a
fixed time rule inside one adaptive spatial quadrature at QUAD_TOL, over y in
[0, L] on twice the even kernel part: V is radial and called on y >= 0, so the
odd part integrates to zero.  Every quadrature is quadrature.quad, which calls
V_fn on arrays and breaks at V's `breaks` (per preset; 0 for a plain callable).

Each Kato question is one batched quad call over all of its integrals:
kato_modulus over every window size and probe, classify over the T_WINDOW
windows of each potential and then over both heat moduli of all of them,
kato_equivalence_check over the windows and orbit intervals of every t,
growth_bound_check over every radius and probe, and the heat leg over every
potential, probe and time rule it asks for.  quad's batch independence makes
each value bit for bit the one a call of its own gives; _flow_density keeps
that, as its value at a point depends only on the point's (kernel row, y).

Each modulus is a ModulusValue whose `error` is the estimate of the spatial
quadrature behind it.  For the heat modulus that is all it is: the error of
the fixed time rule is not in it.

Which Kato class.  The one the form sum L = A + V needs is the heat class of
the Dunkl Laplacian, sup_x int_0^t (e^{-sA}|V|)(x) ds -> 0 as t -> 0
(heat_modulus).  The window moduli (kato_modulus) measure |V| in Lebesgue
measure, which matches it only at kappa = 0: at kappa > 0 the Dunkl heat flow
weights |V| by |y|^{2 kappa} near the origin, so inverse_power |x|^(-beta) is
in the heat class for beta < min(2, 2 kappa + 1) (measured at the origin) while
its Lebesgue window diverges for every beta >= 1.  classify asks both: its
Kato verdict is membership in the two classes at once, and a NotKato from a
divergent or plateaued window speaks of the Lebesgue class alone.

Verdicts are threshold-based trend classifications with an explicit
Inconclusive band; membership in the class is a limit statement and is not
decidable numerically.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import CapabilityError, InputError, NumericalError
from .grids import ROW_BLOCK
from .heat import even_axis_factor, kernel_prefactor
from .quadrature import quad
from .reflection import RootSystem
from .schrodinger import Potential, _cone_layout, _cone_nodes, splitting_kernel, splitting_steps

QUAD_TOL = 1e-12
# Gauss-Laguerre rule in time for the resolvent integrals
LAGUERRE = laggauss(48)
# 8-point Gauss-Legendre rule on [-1, 1] of every _time_rule panel
LEGENDRE = leggauss(8)
# entries (nodes x time nodes) of one heat density table, 128 KiB a temporary; no value depends on it
CHUNK = 2**14

CLASSICAL = "classical"
ORBIT = "orbit"


@dataclass(frozen=True)
class ModulusValue:
    value: float
    error: float
    divergent: bool
    argmax_probe: float


@dataclass(frozen=True)
class KatoReport:
    modulus_classical: dict
    heat_modulus: dict
    verdict: str
    diagnostics: dict


@dataclass(frozen=True)
class SmoothingReport:
    corner_norms: dict
    interpolated: dict
    l2_direct: float


def _masses(V_fn, groups) -> tuple:
    """(mass, error, divergent) arrays of |V| over each group of intervals,
    by one quad over all the intervals with breaks at V's breaks: divergent
    when a quadrature stops unconverged, at a non-integrable break or at
    QUAD_LIMIT panels, or its value is not finite."""
    owner = np.array([g for g, ivs in enumerate(groups) for _ in ivs], dtype=int)
    lo, hi = np.array([iv for ivs in groups for iv in ivs], dtype=float).reshape(-1, 2).T
    val, err, ok = quad(lambda y, _: np.abs(V_fn(y)), lo, hi, _breaks(V_fn))
    n = len(groups)
    bad = np.bincount(owner, ~(ok & np.isfinite(val)), n) > 0
    return np.bincount(owner, val, n), np.bincount(owner, err, n), bad


def _breaks(V_fn) -> tuple:
    return getattr(V_fn, "breaks", (0.0,))


def _orbit_intervals(xp: float, t: float) -> list:
    """Regions of y with | |x| - |y| | <= t, as disjoint intervals."""
    a = max(xp - t, 0.0)
    b = xp + t
    if a == 0.0:
        return [(-b, b)]
    return [(-b, -a), (a, b)]


def _sup(mass, err, bad, probes) -> ModulusValue:
    """The modulus over probes from their masses: inf if one diverges."""
    i, div = int(np.argmax(mass)), bool(bad.any())
    return ModulusValue(np.inf if div else float(mass[i]), float(err[i]), div, float(probes[i]))


def kato_modulus(V_fn, t, form: str = CLASSICAL, probes=(0.0,)):
    """sup over probes of the mass of |V| near the probe, in rank one, where
    the Green weight is 1; for a sequence of window sizes t, one ModulusValue
    each, all by one quadrature.

    Distances are classical |x - y| or orbit | |x| - |y| | (the orbit
    distance of Z_2).  The integral uses Lebesgue measure throughout.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(ts > 0):
        raise InputError("window size t must be positive")
    if form not in (CLASSICAL, ORBIT):
        raise InputError(f"unknown modulus form {form!r}")
    xs = np.atleast_1d(np.asarray(probes, dtype=float))
    groups = [
        _orbit_intervals(abs(x), w) if form == ORBIT else [(x - w, x + w)] for w in ts for x in xs
    ]
    mass, err, bad = _masses(V_fn, groups)
    p = len(xs)
    out = [_sup(mass[i : i + p], err[i : i + p], bad[i : i + p], xs) for i in range(0, len(groups), p)]
    return out[0] if np.ndim(t) == 0 else out


def kato_equivalence_check(V_fn, t_list, probes=(0.0, 0.5, 1.0, 2.0)) -> dict:
    """Sandwich classical <= orbit <= group-sum of translated classical moduli.

    Dimension-one form; the upper leg sums the classical integral over the
    sign orbit of each probe's chamber representative.  A divergent
    quadrature makes its leg inf and the row's `divergent` True.  One
    quadrature takes every window and orbit interval of every t.
    """
    rows = []
    # one classical window per centre, the probes and the upper leg's +-|p|;
    # + 0.0 folds -0.0 onto 0.0
    pts = np.atleast_1d(np.asarray(probes, float)) + 0.0
    legs = np.abs(pts), -np.abs(pts) + 0.0
    centres = sorted({float(c) for c in np.concatenate([pts, *legs])})
    m, p = len(centres), len(pts)
    groups = []
    for t in t_list:
        groups += [[(c - t, c + t)] for c in centres] + [_orbit_intervals(abs(x), t) for x in pts]
    mass, err, bad = _masses(V_fn, groups)
    for i, t in enumerate(t_list):
        j = i * (m + p)
        win = dict(zip(centres, np.where(bad[j : j + m], np.inf, mass[j : j + m]).tolist()))
        mc = max(win[x] for x in pts)
        mo = _sup(mass[j + m : j + m + p], err[j + m : j + m + p], bad[j + m : j + m + p], pts)
        upper = max(win[a] + win[b] for a, b in zip(*legs))
        rows.append(
            {
                "t": float(t),
                "classical": mc,
                "orbit": mo.value,
                "upper": float(upper),
                "divergent": mo.divergent or bool(bad[j : j + m].any()),
                "lower_slack": mo.value - mc,
                "upper_slack": float(upper) - mo.value,
            }
        )
    return {"rows": rows, "probe_count": len(np.atleast_1d(probes))}


# ---------------------------------------------------------------------------
# heat characterization


def _time_rule(t: float) -> tuple:
    """Nodes and weights on [0, t]: 8-point Gauss-Legendre on 9 panels with
    log-spaced edges t * 10^-4 ... t and a first panel down to 0."""
    edges = np.concatenate([[0.0], t * np.geomspace(1e-4, 1.0, 10)])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    gl_x, gl_w = LEGENDRE
    return (mid[:, None] + half[:, None] * gl_x).ravel(), (half[:, None] * gl_w).ravel()


def _flow_density(rs: RootSystem, Vs, pot, x, s, w):
    """(y, owner) -> 2 sum_i w_i K^even_{s_i}(x, y) |V(y)| (sqrt(2) y)^(2 kappa),
    y >= 0, with V = Vs[pot], x, s and w the potential, probe and time rule of
    row `owner` of pot, x (n,) and s, w (n, m); the time-summed kernel once per
    distinct (kernel row, y) of a call, rows of equal (x, s, w) one kernel row,
    on a (y, s) table of at most CHUNK entries at a time, each row summed on
    its own, so a value depends only on its y and its row.

    The integrand of every time-integrated heat flow of a radial |V| at x:
    its integral over [0, inf) is sum_i w_i (e^{-s_i A}|V|)(x), as the part
    of the rank-one kernel odd in y integrates to zero.
    """
    kap = float(rs.multiplicities[0])
    # root length sqrt(2): the density is (sqrt(2)|y|)^(2 kappa)
    ws = 2.0 * w * kernel_prefactor(rs, s)
    step = max(1, CHUNK // s.shape[1])
    # each row's kernel row: the first row of equal (x, s, w)
    first_row = {}
    kernel = np.array([first_row.setdefault(r.tobytes(), i) for i, r in enumerate(np.column_stack([x, s, w]))])

    def density(y, owner):
        k = kernel[owner]
        order = np.lexsort((y, k))
        ks, ys = k[order], y[order]
        new = np.r_[True, (ks[1:] != ks[:-1]) | (ys[1:] != ys[:-1])]
        ks, ys = ks[new], ys[new]
        flow = np.empty_like(ys)
        for i in range(0, len(ys), step):
            o = ks[i : i + step]
            table = even_axis_factor(x[o, None], ys[i : i + step, None], s[o], kap)
            flow[i : i + step] = np.sum(table * ws[o], axis=1)
        at = np.empty(len(y), dtype=int)
        at[order] = np.cumsum(new) - 1
        v, p = np.empty_like(y), pot[owner]
        for j, V in enumerate(Vs):
            v[p == j] = np.abs(V(y[p == j]))
        return flow[at] * (2.0 * y * y) ** kap * v

    return density


def semigroup_abs_potential(rs: RootSystem, V_fn, s, x, w=1.0) -> tuple:
    """(values, errors) arrays of sum_i w_i (e^{-s_i A}|V|)(x) for each probe
    of the flat x, with s and w one time rule for all (1-D) or one row per
    probe (2-D), by one quadrature of _flow_density on [0, L] over all of them;
    for a sequence of potentials V_fn, (values, errors) of shape (potentials,
    probes), all in the same quadrature.

    V is radial and called on arrays of y >= 0.  Breaks: |x|, V's breaks and
    fences around |x| from 10 sqrt(min s) outward by factors of 4 (so that the
    narrowest kernel is not stepped over), folded onto y >= 0.  NumericalError
    if quad stops unconverged: at a non-integrable break or QUAD_LIMIT panels.
    """
    if rs.dimension != 1:
        raise CapabilityError("heat characterization implemented in rank one")
    Vs = (V_fn,) if callable(V_fn) else tuple(V_fn)
    x = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.ndim == 1:
        s = np.broadcast_to(s, (len(x), len(s)))
    w = np.broadcast_to(np.asarray(w, dtype=float), s.shape)
    if not np.all(s > 0):
        raise InputError("times must be positive")
    n, P = len(x), len(Vs)
    pot, x, s, w = np.repeat(np.arange(P), n), np.tile(x, P), np.tile(s, (P, 1)), np.tile(w, (P, 1))
    L = x + 20.0 * np.sqrt(s.max(axis=1)) + 2.0
    pts = []
    for j, xj, Lj, r in zip(pot, x, L, 10.0 * np.sqrt(s.min(axis=1))):
        near = [xj, *_breaks(Vs[j])]
        while r < 2.0 * Lj:
            near += [xj - r, xj + r]
            r *= 4.0
        pts.append({abs(p) for p in near if abs(p) < Lj})
    val, err, converged = quad(_flow_density(rs, Vs, pot, x, s, w), np.zeros_like(L), L, pts, QUAD_TOL)
    if not converged.all():
        j = int(np.argmin(converged))
        raise NumericalError("kato", f"heat flow at x = {x[j]} unconverged, error {err[j]:.3e}")
    val, err = val.reshape(P, n), err.reshape(P, n)
    return (val[0], err[0]) if callable(V_fn) else (val, err)


def heat_modulus(rs: RootSystem, V_fn, t, probes=(0.0,)):
    """sup over probes of int_0^t (e^{-sA}|V|)(x) ds under _time_rule(t), whose
    Gauss-Legendre panels integrate a constant potential to exactly t, as a
    ModulusValue; for a sequence of times t, one each; for a sequence of
    potentials V_fn, a list of what each alone gives; all by one quadrature.

    `error` is the spatial quadrature's estimate at the argmax probe only; the
    truncation of _time_rule is not in it (its first panel [0, t 1e-4] reads
    inverse_power 7.7e-6 to 2.2e-5 low at the origin).  `divergent` is always
    False: an unconverged flow raises NumericalError instead.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(ts > 0):
        raise InputError("time must be positive")
    xs = np.atleast_1d(np.asarray(probes, dtype=float))
    p = len(xs)
    # one row per (time, probe) pair, the probes of each time together
    s, w = (np.repeat(v, p, axis=0) for v in zip(*map(_time_rule, ts)))
    val, err = np.atleast_2d(*semigroup_abs_potential(rs, V_fn, s, np.tile(xs, len(ts)), w))
    never = np.zeros(p, dtype=bool)
    out = [[_sup(v[i : i + p], e[i : i + p], never, xs) for i in range(0, len(v), p)] for v, e in zip(val, err)]
    out = [o[0] if np.ndim(t) == 0 else o for o in out]
    return out[0] if callable(V_fn) else out


def heat_modulus_split(rs: RootSystem, V_fn, t: float, probes=(0.0,)) -> dict:
    """Diagnostic small-ball / Gaussian-tail split of the damped majorant.

    Integrates the a = 1 resolvent density (_flow_density with the Laguerre
    rule) on the orbit ball of radius beta = (t / 2c)^(1/2) with c = 1/4, y >= 0;
    the tail is the whole a = 1 resolvent (as in resolvent_decay) minus the
    ball.  The heat modulus is bounded by e^t times the sum.
    """
    if rs.dimension != 1:
        raise CapabilityError("split diagnostic implemented in rank one")
    beta = (2.0 * t) ** 0.5
    probes = np.atleast_1d(np.asarray(probes, dtype=float))
    xs = np.abs(probes)
    rule = (np.broadcast_to(v, (len(xs), len(v))) for v in LAGUERRE)
    density = _flow_density(rs, (V_fn,), np.zeros(len(xs), dtype=int), xs, *rule)
    near = quad(density, np.maximum(xs - beta, 0.0), xs + beta, {abs(p) for p in _breaks(V_fn)})[0]
    total = semigroup_abs_potential(rs, V_fn, LAGUERRE[0], xs, LAGUERRE[1])[0]
    out = [
        {"probe": float(x), "small_ball": float(b), "tail": float(a - b)}
        for x, b, a in zip(probes, near, total)
    ]
    worst = max(out, key=lambda r: r["small_ball"] + r["tail"])
    return {"beta": float(beta), "parts": out, "majorant_at_sup": worst}


def resolvent_decay(rs: RootSystem, V_fn, a_list, probes=(0.0,)) -> dict:
    """sup norm of (A + a)^{-1}|V| along a_list under the Gauss-Laguerre rule
    (nodes s_i/a, weights w_i/a), exactly 1/a for a constant potential; also
    records the short-time bound (1 - e^{-1})^{-1} heat_modulus(1/a).  One
    quadrature takes every shift and probe, one more every heat modulus."""
    a = np.asarray(a_list, dtype=float)
    if not np.all(a > 0):
        raise InputError("resolvent shifts must be positive")
    xs = np.atleast_1d(np.asarray(probes, dtype=float))
    s, w = (np.repeat(v[None, :] / a[:, None], len(xs), axis=0) for v in LAGUERRE)
    norms = semigroup_abs_potential(rs, V_fn, s, np.tile(xs, len(a)), w)[0]
    norms = norms.reshape(len(a), len(xs)).max(axis=1)
    hm = heat_modulus(rs, V_fn, (1.0 / a).tolist(), probes)
    rows = [
        {"a": float(ai), "norm": float(nm), "bound": h.value / (1.0 - math.exp(-1.0))}
        for ai, nm, h in zip(a, norms, hm)
    ]
    return {"rows": rows}


# ---------------------------------------------------------------------------
# growth bound and smoothing


def growth_bound_check(V_fn, r_list, probes=(0.0,), form: str = ORBIT) -> dict:
    """Fit C in sup_x int_{ball r} |V| dy <= C (r + 1), the ball of the
    modulus form (orbit by default); report the fit's stability when the
    radius list is extended by a factor 4."""
    ext_list = [4.0 * r for r in r_list]
    # one quadrature for every radius: the ladders share some (2 and 4 of 0.5 ... 4)
    radii = list(dict.fromkeys([*r_list, *ext_list]))
    mod = {r: m.value for r, m in zip(radii, kato_modulus(V_fn, radii, form, probes))}

    def fitted(rs_):
        return max(mod[r] / (r + 1.0) for r in rs_)

    base_vals = [mod[r] for r in r_list]
    C, C_ext = fitted(r_list), fitted(ext_list)
    return {
        "r_list": [float(r) for r in r_list],
        "integrals": base_vals,
        "C": float(C),
        "C_extended": float(C_ext),
        "stable": bool(np.isfinite(C_ext) and C_ext <= 1.5 * max(C, 1e-300)),
    }


def _theta(p: float, q: float) -> tuple:
    ip = 0.0 if np.isinf(p) else 1.0 / p
    iq = 0.0 if np.isinf(q) else 1.0 / q
    if ip < iq:
        raise InputError("interpolation requires p <= q")
    return iq, 1.0 - ip, ip - iq


def smoothing_norms(grid, V: Optional[Potential], t: float, pq_list) -> SmoothingReport:
    """Corner norms of e^{-tL} at time t, L = A + V on the grid (V None: free).

    The kernel is the symmetric splitting product (splitting_kernel) with as
    many steps as the grid resolves (splitting_steps), not the eigencalculus
    kernel: it is entrywise nonnegative and sub-Markov for every V >= 0, so
    the inf->inf corner is at most 1 up to rounding even where the
    eigencalculus rings (1 + 8.8e-14 against 1 + 7.4e-5 for inverse_power,
    beta 0.5, on the 14/256 kernel grid at t = 0.1).  The norms are read from
    its columns on the positive cone of the axes V leaves mirror-invariant.
    """
    if t <= 0:
        raise InputError("time must be positive")
    W, axes = splitting_kernel(grid, V, t, splitting_steps(grid, t))
    return smoothing_norms_of_kernel(grid, W, pq_list, axes)


def smoothing_norms_of_kernel(grid, W, pq_list, axes=()) -> SmoothingReport:
    """Corner norms of a kernel and Riesz-Thorin interpolants; the kernel is
    held as its N x N/2^a columns at the cone nodes of axes, whose reflections
    it commutes with (splitting_kernel's layout; axes () is the whole table),
    else InputError.

    1->inf is the sup and 1->1 the max column mass of the cone columns, as
    every other column is a mirror copy; inf->inf is the max row mass, F D 1
    on the cone, F = sum_q A_q the fold of the quadrant tables A_q(r, s) =
    W(R_q r, s) (views of W, _cone_layout, summed pairwise in quadrant order),
    as every row is a mirror image of a cone row.
    Interior (p, q) values are the log-convex corner combination.  The direct
    L2 operator norm is included for the upper-bound cross-check.

    W must be entrywise nonnegative and symmetric to 1e-12 relative (splitting
    kernels are, to about 2e-15), else InputError; W(R_p r, R_q s) - W(R_q s,
    R_p r) is A_{p^q}(r, s) - A_{p^q}(s, r), so max |W - W^T| is the largest
    over the A_q.  S = D^(1/2) W D^(1/2) is then too, so by Perron-Frobenius
    ||S||_2 is its top eigenvalue, found by Lanczos to machine precision from
    D^(1/2) 1, which no Perron vector is orthogonal to.  A Perron vector is
    even on the axes, so Lanczos runs on the all-even parity block, F.
    """
    n, d, axes = grid.n_axis, grid.dimension, tuple(axes)
    if W.shape != (len(grid), len(grid) >> len(axes)):
        raise InputError(f"kernel of shape {W.shape} is not the cone columns of axes {axes}")
    m = W.shape[1]
    A = [W.reshape((n,) * d + (m,))[sl] for sl in _cone_layout(n, d, axes)[0]]
    n_1inf = float(np.max(W))
    if np.min(W) < 0 or max(_max_asymmetry(a.reshape(m, m)) for a in A) > 1e-12 * n_1inf:
        raise InputError("smoothing kernel must be nonnegative and symmetric to 1e-12")
    om = grid.mu_weights[_cone_nodes(grid, axes)]
    while len(A) > 1:
        A = [p + q for p, q in zip(A[::2], A[1::2])]
    F = np.ascontiguousarray(A[0]).reshape(m, m)  # C order: the rounding of F @ om follows it
    n_infinf = float(np.max(F @ om))
    n_11 = float(np.max(grid.mu_weights @ W))
    corners = {(1, 1): n_11, ("inf", "inf"): n_infinf, (1, "inf"): n_1inf}
    interp = {}
    for p, q in pq_list:
        pv = np.inf if p in ("inf", np.inf) else float(p)
        qv = np.inf if q in ("inf", np.inf) else float(q)
        th1, th2, th3 = _theta(pv, qv)
        interp[(p, q)] = float(n_11**th1 * n_infinf**th2 * n_1inf**th3)
    dh = np.sqrt(om)
    l2 = _top_eigenvalue(lambda v: dh * (F @ (dh * v)), dh)
    return SmoothingReport(corners, interp, l2)


def _max_asymmetry(W: np.ndarray) -> float:
    """max |W - W^T| of a square W over its upper-triangle ROW_BLOCK tiles."""
    n, b = len(W), ROW_BLOCK
    return max(float(np.max(np.abs(W[i : i + b, j : j + b] - W[j : j + b, i : i + b].T)))
               for i in range(0, n, b) for j in range(i, n, b))


def _top_eigenvalue(apply, v0: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric operator `apply` (a matrix-vector
    product) by Lanczos from v0 with full reorthogonalisation, once the Ritz
    residual is at most 4 eps times the Ritz value; NumericalError if that
    takes more than len(v0) steps."""
    n = len(v0)
    Q = v0[None, :] / math.sqrt(v0 @ v0)  # row k is the k-th Lanczos vector
    alpha, beta = [], []
    for k in range(n):
        w = apply(Q[k])
        alpha.append(float(Q[k] @ w))
        for _ in range(2):  # against every earlier vector; twice is enough
            w -= Q.T @ (Q @ w)
        theta, y = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        b = math.sqrt(w @ w)
        if b * abs(y[-1, -1]) <= 4.0 * np.finfo(float).eps * abs(theta[-1]):
            return float(theta[-1])
        if k + 1 < n:
            beta.append(b)
            Q = np.vstack([Q, w / b])
    raise NumericalError("kato", f"Lanczos top eigenvalue unconverged after {n} steps")


# ---------------------------------------------------------------------------
# verdicts


T_WINDOW = (1.0, 0.3, 0.1, 0.03, 0.01)


def classify(rs: RootSystem, V_fn, probes=(0.0,)):
    """Trend-based class verdict over the shrinking window ladder T_WINDOW, as
    a KatoReport; for a sequence of potentials V_fn, a list of what each gives.

    Kato requires a >= 4x drop of the heat modulus from t = 1 to t = 0.03,
    a monotone definitional modulus, and a small-window ratio <= 0.40;
    NotKato on quadrature divergence or a plateau ratio >= 0.8; otherwise
    Inconclusive.  Rank one only.  One quadrature takes every window of a
    potential, one more both heat moduli of every potential with no divergent
    window; the diagnostics record the largest error estimate behind a window
    modulus and a heat modulus.
    """
    if rs.dimension != 1:
        raise CapabilityError("Kato classification implemented in rank one")
    Vs, out = (V_fn,) if callable(V_fn) else tuple(V_fn), []
    windows = [kato_modulus(V, T_WINDOW, CLASSICAL, probes) for V in Vs]
    finite = [V for V, ms in zip(Vs, windows) if not any(m.divergent for m in ms)]
    heat = iter(heat_modulus(rs, finite, (1.0, 0.03), probes) if finite else ())
    for ms in windows:
        mc = {float(t): m.value for t, m in zip(T_WINDOW, ms)}
        divergent = any(m.divergent for m in ms)
        diagnostics = {
            "divergent": divergent,
            "probe_count": len(np.atleast_1d(probes)),
            "window_error": max(m.error for m in ms),
        }
        hm = {}
        if divergent:
            verdict = "NotKato"
        else:
            h1, h03 = next(heat)
            hm = {1.0: h1.value, 0.03: h03.value}
            diagnostics["heat_error"] = max(h1.error, h03.error)
            ts = sorted(mc)
            vals = [mc[t] for t in ts]
            monotone = all(a <= b * (1.0 + 1e-9) for a, b in zip(vals[:-1], vals[1:]))
            ratio = vals[0] / vals[-1] if vals[-1] > 0 else 0.0
            diagnostics["shrink_ratio"] = ratio
            if ratio >= 0.8:
                verdict = "NotKato"
            elif monotone and ratio <= 0.40 and hm[1.0] >= 4.0 * hm[0.03]:
                verdict = "Kato"
            else:
                verdict = "Inconclusive"
        out.append(KatoReport(mc, hm, verdict, diagnostics))
    return out[0] if callable(V_fn) else out
