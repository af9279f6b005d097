"""Adaptive Gauss-Kronrod quadrature that calls its integrand on arrays: QUADPACK's
qk21 rule and error estimate (Piessens et al., QUADPACK, Springer 1983), refined
in rounds that evaluate all new panels in one call.

One call integrates a batch of integrals.  Each round evaluates the new panels
of every unfinished integral in one call of the integrand, which is told each
point's integral (its owner).  Each integral keeps its own interval,
breaks, tolerance and stops, and its (value, error, converged) does not depend
on what else is in the batch, bit for bit: its panels keep their order among
themselves, its sums run over them in that order, ties in error sort stably,
and a panel's rule values are sums over its own row, never a BLAS product whose
rounding depends on the row's place.  That holds as long as the integrand's
value at a point does not depend on the other points of its array.

A quadrature ends unconverged at QUAD_LIMIT panels, or as soon as one panel has
been split DIVERGE_SPLITS times in a row at a break with a piece next to the
break whose rule value is at least that of the whole panel.  The rule is
scale-covariant, so for |y - p|^-beta next to the break p that ratio is exactly
8^(beta - 1) on every split: at least 1 just when the integral diverges.  The
stop assumes that the integrand keeps one sign next to a break; an integrand
that changes sign there can cancel a panel's value below its near piece's.
At a break p != 0 the nodes' distances to p are rounded by about eps |p|.  A
geometric tail there carries that rounding, amplified by 1 / (1 - r), in its
error, and a quadrature ends unconverged when a panel narrower than RESOLVE |p|
is due for a split: the rounding moves the rule values of |y - p|^-beta there
by about eps / RESOLVE = 3.6e-12 relative and more at the nodes nearest p."""

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
EPS = np.finfo(float).eps


def _rows(fv, w):
    """fv @ w one row at a time: a row's sum does not depend on the rows
    around it, as BLAS matrix-vector products can."""
    return np.sum(fv * w, axis=1)


def _qk21(f, lo, hi, owner) -> tuple:
    """Kronrod values, QUADPACK error estimates and the values f took on the
    panels [lo, hi], from one call of f on the 21 nodes of every panel, with
    their owners."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    y = (c[:, None] + h[:, None] * NODES).ravel()
    fv = np.reshape(f(y, np.repeat(owner, 21)), (len(c), 21))
    k = _rows(fv, KRONROD)
    err = np.abs(k - _rows(fv, GAUSS)) * h
    asc = _rows(np.abs(fv - 0.5 * k[:, None]), KRONROD) * h
    ratio = np.divide(200.0 * err, asc, out=np.zeros_like(err), where=asc > 0)
    err = np.where(asc > 0, asc * np.minimum(1.0, ratio**1.5), err)
    return k * h, np.maximum(err, 50.0 * EPS * _rows(np.abs(fv), KRONROD) * h), fv


def _panels(a, b, breaks) -> tuple:
    """Owner, ends and break flags of the first panels: [a_j, b_j] cut at
    the breaks inside it, an end flagged where it is one of the breaks."""
    shared = not any(np.iterable(p) for p in breaks)
    out = []
    for j, (aj, bj) in enumerate(zip(a, b)):
        marks = {float(p) for p in (breaks if shared else breaks[j])}
        edges = sorted({aj, bj, *(p for p in marks if aj < p < bj)})
        out += [(j, lo, hi, lo in marks, hi in marks) for lo, hi in zip(edges[:-1], edges[1:])]
    own, lo, hi, blo, bhi = (np.array(c) for c in zip(*out)) if out else [np.zeros(0)] * 5
    return own.astype(int), lo, hi, blo.astype(bool), bhi.astype(bool)


def quad(f, a, b, breaks=(), tol=1.49e-8) -> tuple:
    """(value, error, converged) arrays for the k integrals over [a_j, b_j]
    of f, each to tol max(1, |value|): a and b arrays of k limits, breaks one
    list for all or one list per integral, and f(y, owner) maps a flat array
    of points, with each point's integral index, to their values.

    Each round splits the panels of largest error until the rest fit in half
    the tolerance: one with an end at a break (a and b too) 1/8 from it,
    others in halves.  The piece at the break takes the geometric tail
    S r / (1 - r) of its neighbour S, r its rule value over the panel's, exact
    for powers of the distance to the break, if the change from the panel's
    own tail, plus the tail's rounding at a break p != 0, is below the rule's
    error.  It stops with converged False at QUAD_LIMIT panels, or when the
    piece at a break has had r >= 1 on DIVERGE_SPLITS splits in a row, as
    |y|^-beta has for beta >= 1: f, of one sign next to the break, is then
    taken as not integrable there; or at a break p != 0 below RESOLVE |p|."""
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    n = len(a)
    own, lo, hi, blo, bhi = _panels(a.tolist(), b.tolist(), list(breaks))
    raw, err, _ = _qk21(f, lo, hi, own)
    ext = val = raw
    grow = np.zeros(len(lo), dtype=int)
    state = own, lo, hi, blo, bhi, raw, ext, val, err, grow
    out = np.zeros((3, n))
    live = np.ones(n, dtype=bool)
    while True:
        # per integral sums in panel order: an integral's panels keep their
        # order among themselves whatever else is in the batch
        total, toterr = np.bincount(own, val, n), np.bincount(own, err, n)
        goal = tol * np.maximum(1.0, np.abs(total))
        count = np.bincount(own, minlength=n)
        ok = toterr <= goal
        stop = ok | (count >= QUAD_LIMIT)
        stop[own[grow >= DIVERGE_SPLITS]] = True
        order = np.lexsort((-err, own))
        so = own[order]
        pos = np.arange(len(so)) - (np.cumsum(count) - count)[so]
        # each integral's running error sum, largest first, one row each
        run = np.zeros((n, count.max()))
        run[so, pos] = err[order]
        rest = toterr[so] - np.cumsum(run, axis=1)[so, pos]
        k = np.minimum(np.bincount(so[rest > 0.5 * goal[so]], minlength=n) + 1, QUAD_LIMIT - count)
        pick = order[pos < k[so]]
        pl, ph, bl, bh = lo[pick], hi[pick], blo[pick], bhi[pick]
        unresolved = (bl != bh) & (ph - pl < RESOLVE * np.abs(np.where(bl, pl, ph)))
        stop[own[pick[unresolved]]] = True
        done = live & stop
        out[:, done] = total[done], toterr[done], ok[done]
        live &= ~stop
        if not live.any():
            break
        keep, mine = order[live[so] & (pos >= k[so])], live[own[pick]]
        pick, pl, ph, bl, bh = pick[mine], pl[mine], ph[mine], bl[mine], bh[mine]
        m = len(pick)
        frac = np.where(bl & ~bh, GRADE, np.where(bh & ~bl, 1.0 - GRADE, 0.5))
        mid = pl + frac * (ph - pl)
        nown, nlo, nhi = np.tile(own[pick], 2), np.concatenate([pl, mid]), np.concatenate([mid, ph])
        q, e, fv = _qk21(f, nlo, nhi, nown)
        near, far = np.arange(m) + m * bh, np.arange(m) + m * ~bh
        graded = (bl != bh) & (raw[pick] != 0)
        r = np.divide(q[near], raw[pick], out=np.zeros(m), where=graded)
        gr = np.zeros(2 * m, dtype=int)
        gr[near] = np.where(r >= 1.0, grow[pick] + 1, 0)
        r = np.where((r > 0) & (r < 1), r, 0.0)
        x, v = q.copy(), q.copy()
        x[near] = np.where(r > 0, q[far] * r / (1.0 - r), q[near])
        # each node's distance to a break p is rounded by up to about eps |p|,
        # which moves |y - p|^-beta (beta <= 1) by eps |p| |f| / distance: the
        # near piece's rule value by slip, the panel's by about slip / 8, and
        # the tail by (1 + 1/8) slip / (1 - r) relative
        dist = np.where(bh[:, None], 1.0 - NODES, 1.0 + NODES)
        slip = EPS * np.abs(np.where(bl, pl, ph)) * _rows(np.abs(fv[near]) / dist, KRONROD)
        slip = np.divide(1.125 * slip * np.abs(x[near]), np.abs(q[near]) * (1.0 - r), out=np.zeros(m), where=r > 0)
        change = np.abs(ext[pick] - q[far] - x[near]) + slip
        use = near[(r > 0) & (change < e[near])]
        v[use], e[use] = x[use], change[use % m]
        off = np.zeros(m, dtype=bool)
        new = nown, nlo, nhi, np.concatenate([bl, off]), np.concatenate([off, bh]), q, x, v, e, gr
        state = tuple(np.concatenate([o[keep], w]) for o, w in zip(state, new))
        own, lo, hi, blo, bhi, raw, ext, val, err, grow = state
    return out[0], out[1], out[2].astype(bool)
