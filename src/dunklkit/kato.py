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

Verdicts are threshold-based trend classifications with an explicit
Inconclusive band; membership in the class is a limit statement and is not
decidable numerically.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import roots_laguerre, roots_legendre

from .errors import CapabilityError, InputError, NumericalError
from .heat import even_axis_factor, kernel_prefactor
from .quadrature import quad
from .reflection import RootSystem
from .schrodinger import Potential, splitting_kernel, splitting_steps

QUAD_TOL = 1e-12
# Gauss-Laguerre rule in time for the resolvent integrals
LAGUERRE = roots_laguerre(48)

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
    modulus_orbit: dict
    heat_modulus: dict
    verdict: str
    diagnostics: dict


@dataclass(frozen=True)
class SmoothingReport:
    corner_norms: dict
    interpolated: dict
    l2_direct: float


def _lebesgue_quad(fn, lo: float, hi: float, singular=()) -> tuple:
    """(value, error, divergent) of quad over [lo, hi] with breaks at the
    singular points: divergent when quad stops unconverged, at a
    non-integrable break or at QUAD_LIMIT panels, or the value is not finite."""
    val, err, ok = quad(fn, lo, hi, singular)
    return val, err, not (ok and np.isfinite(val))


def _breaks(V_fn) -> tuple:
    return getattr(V_fn, "breaks", (0.0,))


def _orbit_intervals(xp: float, t: float) -> list:
    """Regions of y with | |x| - |y| | <= t, as disjoint intervals."""
    a = max(xp - t, 0.0)
    b = xp + t
    if a == 0.0:
        return [(-b, b)]
    return [(-b, -a), (a, b)]


def kato_modulus(
    V_fn,
    t: float,
    form: str = CLASSICAL,
    probes=(0.0,),
    sign_group: bool = True,
) -> ModulusValue:
    """sup over probes of the mass of |V| near the probe, in rank one, where
    the Green weight is 1.

    Distances are classical |x - y| or orbit | |x| - |y| | (sign group);
    with sign_group False the orbit form degenerates to the classical one.
    The integral uses Lebesgue measure throughout.
    """
    if t <= 0:
        raise InputError("window size t must be positive")
    if form not in (CLASSICAL, ORBIT):
        raise InputError(f"unknown modulus form {form!r}")
    singular = _breaks(V_fn)
    best, best_err, best_probe, div = -np.inf, 0.0, 0.0, False
    for x in np.atleast_1d(np.asarray(probes, dtype=float)):
        if form == ORBIT and sign_group:
            intervals = _orbit_intervals(abs(x), t)
        else:
            intervals = [(x - t, x + t)]
        tot, toterr, bad = 0.0, 0.0, False
        for lo, hi in intervals:
            v, e, b = _lebesgue_quad(lambda y: np.abs(V_fn(y)), lo, hi, singular)
            tot, toterr, bad = tot + v, toterr + e, bad or b
        div = div or bad
        if tot > best:
            best, best_err, best_probe = tot, toterr, float(x)
    return ModulusValue(np.inf if div else best, best_err, div, best_probe)


def kato_equivalence_check(V_fn, t_list, probes=(0.0, 0.5, 1.0, 2.0)) -> dict:
    """Sandwich classical <= orbit <= group-sum of translated classical moduli.

    Dimension-one form; the upper leg sums the classical integral over the
    sign orbit of each probe's chamber representative.  A divergent
    quadrature makes its leg inf and the row's `divergent` True.
    """
    rows = []
    for t in t_list:
        mc = kato_modulus(V_fn, t, CLASSICAL, probes)
        mo = kato_modulus(V_fn, t, ORBIT, probes)
        upper, div = -np.inf, mc.divergent or mo.divergent
        for xp in np.abs(np.atleast_1d(np.asarray(probes, float))):
            legs = [kato_modulus(V_fn, t, CLASSICAL, (c,)) for c in (xp, -xp)]
            upper = max(upper, sum(m.value for m in legs))
            div = div or any(m.divergent for m in legs)
        rows.append(
            {
                "t": float(t),
                "classical": mc.value,
                "orbit": mo.value,
                "upper": float(upper),
                "divergent": div,
                "lower_slack": mo.value - mc.value,
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
    gl_x, gl_w = roots_legendre(8)
    return (mid[:, None] + half[:, None] * gl_x).ravel(), (half[:, None] * gl_w).ravel()


def _flow_density(rs: RootSystem, V_fn, x: float, s, w):
    """y -> 2 sum_i w_i K^even_{s_i}(x, y) |V(y)| (sqrt(2) y)^(2 kappa), y >= 0,
    on a flat array of y through one (y, s) table of the even kernel term.

    The integrand of every time-integrated heat flow of a radial |V| at x:
    its integral over [0, inf) is sum_i w_i (e^{-s_i A}|V|)(x), as the part
    of the rank-one kernel odd in y integrates to zero.
    """
    kap = float(rs.multiplicities[0])
    # root length sqrt(2): the density is (sqrt(2)|y|)^(2 kappa)
    ws = 2.0 * w * kernel_prefactor(rs, s)

    def density(y):
        flow = even_axis_factor(x, y[:, None], s, kap) @ ws
        return flow * (2.0 * y * y) ** kap * np.abs(V_fn(y))

    return density


def semigroup_abs_potential(rs: RootSystem, V_fn, s, x: float, w=1.0) -> float:
    """sum_i w_i (e^{-s_i A}|V|)(x): one quadrature of _flow_density on [0, L].

    V is radial and called on arrays of y >= 0.  Breaks: |x|, V's breaks and
    fences around |x| from 10 sqrt(min s) outward by factors of 4 (so that the
    narrowest kernel is not stepped over), folded onto y >= 0.  NumericalError
    if quad stops unconverged: at a non-integrable break or QUAD_LIMIT panels.
    """
    if rs.dimension != 1:
        raise CapabilityError("heat characterization implemented in rank one")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(s > 0):
        raise InputError("times must be positive")
    x = abs(x)
    L = x + 20.0 * math.sqrt(s.max()) + 2.0
    pts = [x, *_breaks(V_fn)]
    r = 10.0 * math.sqrt(s.min())
    while r < 2.0 * L:
        pts += [x - r, x + r]
        r *= 4.0
    pts = {abs(p) for p in pts if abs(p) < L}
    density = _flow_density(rs, V_fn, x, s, w)
    val, err, converged = quad(density, 0.0, L, pts, QUAD_TOL)
    if not converged:
        raise NumericalError("kato", f"heat flow at x = {x} unconverged, error {err:.3e}")
    return val


def heat_modulus(rs: RootSystem, V_fn, t: float, probes=(0.0,)) -> float:
    """sup_x of int_0^t (e^{-sA}|V|)(x) ds under _time_rule(t), whose
    Gauss-Legendre panels integrate a constant potential to exactly t."""
    if t <= 0:
        raise InputError("time must be positive")
    s, w = _time_rule(t)
    return max(
        semigroup_abs_potential(rs, V_fn, s, float(x), w)
        for x in np.atleast_1d(np.asarray(probes, dtype=float))
    )


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
    sv, sw = LAGUERRE
    out = []
    for x in np.atleast_1d(np.asarray(probes, dtype=float)):
        density = _flow_density(rs, V_fn, abs(x), sv, sw)
        lo, hi = max(abs(x) - beta, 0.0), abs(x) + beta
        near = _lebesgue_quad(density, lo, hi, {abs(p) for p in _breaks(V_fn)})[0]
        total = semigroup_abs_potential(rs, V_fn, sv, float(x), sw)
        out.append({"probe": float(x), "small_ball": near, "tail": total - near})
    worst = max(out, key=lambda r: r["small_ball"] + r["tail"])
    return {"beta": float(beta), "parts": out, "majorant_at_sup": worst}


def resolvent_decay(rs: RootSystem, V_fn, a_list, probes=(0.0,)) -> dict:
    """sup norm of (A + a)^{-1}|V| along a_list under the Gauss-Laguerre rule
    (nodes s_i/a, weights w_i/a), exactly 1/a for a constant potential; also
    records the short-time bound (1 - e^{-1})^{-1} heat_modulus(1/a)."""
    sv, sw = LAGUERRE
    rows = []
    for a in a_list:
        if a <= 0:
            raise InputError("resolvent shifts must be positive")
        norm = max(
            semigroup_abs_potential(rs, V_fn, sv / a, float(x), sw / a)
            for x in np.atleast_1d(np.asarray(probes, dtype=float))
        )
        hm = heat_modulus(rs, V_fn, 1.0 / a, probes)
        rows.append({"a": float(a), "norm": norm, "bound": hm / (1.0 - math.exp(-1.0))})
    return {"rows": rows}


# ---------------------------------------------------------------------------
# growth bound and smoothing


def growth_bound_check(V_fn, r_list, probes=(0.0,), sign_group: bool = True) -> dict:
    """Fit C in sup_x int_{orbit ball r} |V| dy <= C (r + 1); report the
    fit's stability when the radius list is extended by a factor 4."""

    def fitted(rs_):
        vals = []
        for r in rs_:
            m = kato_modulus(V_fn, r, ORBIT, probes, sign_group)
            vals.append(m.value)
        ratios = [v / (r + 1.0) for v, r in zip(vals, rs_)]
        return vals, max(ratios)

    base_vals, C = fitted(list(r_list))
    _, C_ext = fitted([4.0 * r for r in r_list])
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
    beta 0.5, on the 14/256 kernel grid at t = 0.1).
    """
    if t <= 0:
        raise InputError("time must be positive")
    W = splitting_kernel(grid, V, t, splitting_steps(grid, t))
    return smoothing_norms_of_kernel(grid, W, pq_list)


def smoothing_norms_of_kernel(grid, W, pq_list) -> SmoothingReport:
    """Corner norms of an explicit kernel matrix and Riesz-Thorin interpolants.

    1->inf is the kernel sup; inf->inf the max row mass; 1->1 the max column
    mass; interior (p, q) values are the log-convex corner combination.  The
    direct L2 operator norm is included for the upper-bound cross-check.

    W must be entrywise nonnegative and symmetric to 1e-12 relative (splitting
    kernels are, to about 2e-15), else InputError; S = D^(1/2) W D^(1/2) is then
    too, so by Perron-Frobenius ||S||_2 is its top eigenvalue, found by Lanczos
    to machine precision from D^(1/2) 1, which no Perron vector is orthogonal to.
    """
    om = grid.mu_weights
    n_1inf = float(np.max(W))
    if np.any(W < 0) or np.max(np.abs(W - W.T)) > 1e-12 * n_1inf:
        raise InputError("smoothing kernel must be nonnegative and symmetric to 1e-12")
    n_infinf = float(np.max(W @ om))
    n_11 = float(np.max(om @ W))
    corners = {(1, 1): n_11, ("inf", "inf"): n_infinf, (1, "inf"): n_1inf}
    interp = {}
    for p, q in pq_list:
        pv = np.inf if p in ("inf", np.inf) else float(p)
        qv = np.inf if q in ("inf", np.inf) else float(q)
        th1, th2, th3 = _theta(pv, qv)
        interp[(p, q)] = float(n_11**th1 * n_infinf**th2 * n_1inf**th3)
    from scipy.sparse.linalg import eigsh

    dh = np.sqrt(om)
    l2 = float(eigsh(dh[:, None] * W * dh[None, :], k=1, which="LA", v0=dh, tol=0)[0][0])
    return SmoothingReport(corners, interp, l2)


# ---------------------------------------------------------------------------
# verdicts


T_WINDOW = (1.0, 0.3, 0.1, 0.03, 0.01)


def classify(rs: RootSystem, V_fn, probes=(0.0,)) -> KatoReport:
    """Trend-based class verdict over the shrinking window ladder T_WINDOW.

    Kato requires a >= 4x drop of the heat modulus from t = 1 to t = 0.03,
    a monotone definitional modulus, and a small-window ratio <= 0.40;
    NotKato on quadrature divergence or a plateau ratio >= 0.8; otherwise
    Inconclusive.  Rank one only.
    """
    if rs.dimension != 1:
        raise CapabilityError("Kato classification implemented in rank one")
    mc, mo, hm = {}, {}, {}
    divergent = False
    for t in T_WINDOW:
        m1 = kato_modulus(V_fn, t, CLASSICAL, probes)
        mc[float(t)] = m1.value
        m2 = kato_modulus(V_fn, t, ORBIT, probes)
        mo[float(t)] = m2.value
        divergent = divergent or m1.divergent or m2.divergent
    diagnostics = {"divergent": divergent, "probe_count": len(np.atleast_1d(probes))}
    if divergent:
        verdict = "NotKato"
    else:
        for t in (1.0, 0.03):
            hm[float(t)] = heat_modulus(rs, V_fn, t, probes)
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
    return KatoReport(mc, mo, hm, verdict, diagnostics)
