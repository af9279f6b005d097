"""Adaptive Gauss-Kronrod quadrature that calls its integrand on arrays: QUADPACK's
qk21 rule and error estimate (Piessens et al., QUADPACK, Springer 1983), refined
in rounds that evaluate all new panels in one call.

A quadrature ends unconverged at QUAD_LIMIT panels, or as soon as one panel has
been split DIVERGE_SPLITS times in a row at a break with a piece next to the
break whose rule value is at least that of the whole panel.  The rule is
scale-covariant, so for |y - p|^-beta next to the break p that ratio is exactly
8^(beta - 1) on every split: at least 1 just when the integral diverges.  The
stop assumes that the integrand keeps one sign next to a break; an integrand
that changes sign there can cancel a panel's value below its near piece's.
It also ends unconverged when a panel at a break p != 0 narrower than
RESOLVE |p| is due for a split: its nodes' distances to p are rounded by about
eps |p|, which moves the rule values of |y - p|^-beta there by up to about
eps / RESOLVE = 3.6e-12 relative, and the geometric tail amplifies that."""

import numpy as np

# qk21 on the half-rule, outside in, as the doubles of QUADPACK's constants:
# abscissae and Kronrod weights, then the Gauss weights of the odd positions
_X = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
               0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
               0.2943928627014602, 0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287]
# the 21 nodes on [-1, 1] ascending, with their Kronrod and Gauss weights
NODES = np.concatenate([-_X[:-1], _X[::-1]])
KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
GAUSS = np.zeros(21)
GAUSS[1:10:2] = GAUSS[19:10:-2] = _WG
GRADE = 0.125
# graded splits in a row at which a panel's near piece outweighs it, after
# which quad gives up on the integral as divergent
DIVERGE_SPLITS = 3
QUAD_LIMIT = 200
RESOLVE = 2.0**-14


def _qk21(f, lo, hi) -> tuple:
    """Kronrod values and QUADPACK error estimates on the panels [lo, hi],
    from one call of f on the 21 nodes of every panel."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = np.reshape(f((c[:, None] + h[:, None] * NODES).ravel()), (len(c), 21))
    k = fv @ KRONROD
    err = np.abs(k - fv @ GAUSS) * h
    asc = np.abs(fv - 0.5 * k[:, None]) @ KRONROD * h
    ratio = np.divide(200.0 * err, asc, out=np.zeros_like(err), where=asc > 0)
    err = np.where(asc > 0, asc * np.minimum(1.0, ratio**1.5), err)
    return k * h, np.maximum(err, 50.0 * np.finfo(float).eps * (np.abs(fv) @ KRONROD) * h)


def quad(f, a, b, breaks=(), tol=1.49e-8) -> tuple:
    """(value, error, converged) for the integral over [a, b] of f, which maps
    a flat array of points to their values, to tol max(1, |value|).  Each round
    splits the panels of largest error until the rest fit in half the tolerance:
    one with an endpoint at a break (a and b too) 1/8 from it, others in halves.
    The piece at the break takes the geometric tail S r / (1 - r) of its
    neighbour S, r its rule value over the panel's, exact for powers of the
    distance to the break, if the change from the panel's own tail is below the
    rule's error.  It stops with converged False at QUAD_LIMIT panels, or when
    the piece at a break has had r >= 1 on DIVERGE_SPLITS splits in a row, as
    |y|^-beta has for beta >= 1: f, of one sign next to the break, is then
    taken as not integrable there; or at a break p != 0 below RESOLVE |p|."""
    marks = np.array([float(p) for p in breaks])
    edges = np.array(sorted({float(a), float(b), *(p for p in marks if a < p < b)}))
    lo, hi = edges[:-1], edges[1:]
    raw, err = _qk21(f, lo, hi)
    ext = val = raw
    grow = np.zeros(len(lo), dtype=int)
    while True:
        total, toterr = float(val.sum()), float(err.sum())
        goal = tol * max(1.0, abs(total))
        if toterr <= goal or len(lo) >= QUAD_LIMIT or grow.max() >= DIVERGE_SPLITS:
            return total, toterr, toterr <= goal
        order = np.argsort(-err)
        rest = toterr - np.cumsum(err[order])
        k = min(int(np.count_nonzero(rest > 0.5 * goal)) + 1, QUAD_LIMIT - len(lo))
        pick, keep = order[:k], order[k:]
        pl, ph = lo[pick], hi[pick]
        at_lo, at_hi = np.isin(pl, marks), np.isin(ph, marks)
        if np.any((at_lo != at_hi) & (ph - pl < RESOLVE * np.abs(np.where(at_lo, pl, ph)))):
            return total, toterr, False
        frac = np.where(at_lo & ~at_hi, GRADE, np.where(at_hi & ~at_lo, 1.0 - GRADE, 0.5))
        nlo = np.concatenate([pl, pl + frac * (ph - pl)])
        nhi = np.concatenate([nlo[k:], ph])
        q, e = _qk21(f, nlo, nhi)
        near, far = np.arange(k) + k * at_hi, np.arange(k) + k * ~at_hi
        graded = (at_lo != at_hi) & (raw[pick] != 0)
        r = np.divide(q[near], raw[pick], out=np.zeros(k), where=graded)
        g = np.zeros(2 * k, dtype=int)
        g[near] = np.where(r >= 1.0, grow[pick] + 1, 0)
        r = np.where((r > 0) & (r < 1), r, 0.0)
        x, v = q.copy(), q.copy()
        x[near] = np.where(r > 0, q[far] * r / (1.0 - r), q[near])
        change = np.abs(ext[pick] - q[far] - x[near])
        use = near[(r > 0) & (change < e[near])]
        v[use], e[use] = x[use], change[use % k]
        old, new = (lo, hi, raw, ext, val, err, grow), (nlo, nhi, q, x, v, e, g)
        lo, hi, raw, ext, val, err, grow = (np.concatenate([o[keep], n]) for o, n in zip(old, new))
