"""Discretized Schrodinger operator L = A + V on weighted grids: semigroup,
inverse square root, Riesz transforms, and weighted-kernel estimates.

Similarity convention: with D the diagonal of quadrature weights, operators
act on g = D^(1/2) f so that symmetric matrices represent operators that are
self-adjoint in the weighted inner product.

There is one operator, held on the resolved free modes: the eigenbasis of
the reference free kernel at a short time t0, truncated at the quadrature
resolution floor, on which the free part is diagonal.  assemble_L pairs those
modes with V's samples, eig solves it (Galerkin in V), and resolved_calculus
is the two steps; the spectrum, the semigroup, L^(-1/2), the Riesz transforms
and the eigencalculus kernel all come from that decomposition.  Modes beyond
the floor belong to the unresolved corner of the discretization and would
contribute non-decaying artifacts to kernel entries at every time, so they
are excluded and the kept count is reported; a grid that keeps none is
refused.

The kernel of e^{-tL} has two paths, one per property it guarantees.  The
eigencalculus kernel (schrodinger_kernel) has spectral entry accuracy but
only approximate positivity: the Galerkin compression of a potential that
jumps rings in the band-limited basis, and for inverse_power (beta 0.5, cut
at r = 1) on the 14/256 kernel grid its row mass reads 1 + 7.4e-5 with
entries down to -4.5e-5.  The symmetric splitting product (splitting_kernel)
is entrywise nonnegative and sub-Markov for every V >= 0, which is what the
smoothing norms measure.

Every grid is mirror-symmetric on each axis bit for bit, and L commutes with
the reflection x_j -> -x_j wherever V is even in x_j, as every radial preset
is, so its eigenproblems split into parity blocks (Fassler and Stiefel,
Group Theoretical Methods, 1992, ch. 5): 2^d solves a 2^d-th the size, a
quarter of the flops in rank one and a sixteenth in rank two.  The split
takes only the axes whose reflection leaves V's samples unchanged bit for
bit; with none, as for a CSV potential drawn off-symmetry, there is one
block, the whole problem.  Resolved modes are stored on the cone of the a
split axes, a 2^a-th of the rows (EigenDecomp), where the Galerkin products,
the frame apply and the kernel run one class at a time.
"""

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Optional

import numpy as np
from numpy.linalg import eigh

from .errors import CapabilityError, IllPosedError, InputError
from .grids import QuadratureGrid, SampledFunction, build_grid, kron_apply
from .heat import heat_apply, heat_axis_tables, heat_kernel_matrix
from .intertwine import phi_profile
from .operators import derivative_apply
from .reflection import RootSystem, gamma_k
from .transform import SpectralMatrix

DEFAULT_T0 = 0.1
NYQUIST_FACTOR = 1.7


# ---------------------------------------------------------------------------
# potentials

PRESET_PARAMS = {
    "zero": (),
    "constant": ("c",),
    "soft_coulomb": ("a",),
    "inverse_power": ("beta", "cutoff"),
    "bump": ("h", "w"),
}


@dataclass(frozen=True)
class Potential:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise InputError("potential values must be nonnegative and finite")
        object.__setattr__(self, "values", v)


def _radial(fn, *breaks):
    fn.breaks = breaks or (0.0,)
    return fn


def potential_function(name: str, **params) -> Callable:
    """Vectorized radial callable for a named potential preset; its `breaks`
    are where it jumps (inverse_power's cutoff, bump's support edge) and 0."""
    if name == "zero":
        return _radial(lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    if name == "constant":
        c = float(params.get("c", 1.0))
        return _radial(lambda r: np.full_like(np.asarray(r, dtype=float), c))
    if name == "soft_coulomb":
        a = float(params.get("a", 1.0))
        return _radial(lambda r: 1.0 / (a + np.asarray(r, dtype=float) ** 2))
    if name == "inverse_power":
        beta = float(params["beta"])
        cutoff = float(params.get("cutoff", 1.0))

        def _inv(r):
            r = np.abs(np.asarray(r, dtype=float))
            out = np.zeros_like(r)
            inside = (r <= cutoff) & (r > 0)
            out[inside] = r[inside] ** (-beta)
            return out

        return _radial(_inv, -cutoff, 0.0, cutoff)
    if name == "bump":
        h = float(params.get("h", 1.0))
        w = float(params.get("w", 4.0))

        def _bump(r):
            r = np.abs(np.asarray(r, dtype=float))
            out = np.zeros_like(r)
            inside = r < w
            q = (r[inside] / w) ** 2
            out[inside] = h * np.exp(1.0 - 1.0 / (1.0 - q))
            return out

        return _radial(_bump, -w, 0.0, w)
    raise InputError(f"unknown potential preset {name!r}")


def potential_preset(grid: QuadratureGrid, name: str, **params) -> Potential:
    fn = potential_function(name, **params)
    radii = np.linalg.norm(grid.nodes, axis=1)
    return Potential(fn(radii))


def potential_from_csv(grid: QuadratureGrid, path) -> Potential:
    sampled = SampledFunction.from_csv(grid, path)
    return Potential(sampled.values)


# ---------------------------------------------------------------------------
# operator assembly and eigendecomposition carriers


@lru_cache(maxsize=8)
def _cone_layout(n: int, d: int, axes: tuple) -> tuple:
    """Slicers of the 2^a quadrants of the (n,)*d node array (q negative on
    axes[k] for each set bit k) listing their nodes as mirror images of the
    cone's, in its row-major order; and per node its cone row and quadrant."""
    h, idx = n // 2, np.arange(n**d).reshape((n,) * d)
    quads = [tuple(slice(None) if j not in axes else slice(h - 1, None, -1)
                   if q >> axes.index(j) & 1 else slice(h, None) for j in range(d))
             for q in range(2 ** len(axes))]
    row, quad = np.empty((2, n**d), int)
    for q, sl in enumerate(quads):
        row[idx[sl].ravel()], quad[idx[sl].ravel()] = np.arange(n**d >> len(axes)), q
    return quads, row, quad


def _quadrants(a: np.ndarray, n: int, d: int, axes: tuple) -> np.ndarray:
    """Rows of a, (n^d, ...) in node order, at each quadrant's nodes as mirror
    images of the cone's (_cone_layout): (2^a, n^d/2^a, ...), a C-ordered copy
    whatever a's order.  _wht of it gives a's parity classes; of a table with
    one column per cone node that commutes with the axes' reflections, the
    parity blocks."""
    x = a.reshape((n,) * d + a.shape[1:])
    return np.array([x[sl].reshape(-1, *a.shape[1:]) for sl in _cone_layout(n, d, axes)[0]])


def _cone_nodes(grid: QuadratureGrid, axes: tuple) -> np.ndarray:
    """Indices of the cone nodes of axes (_cone_layout's quadrant 0), ascending."""
    return np.flatnonzero(_cone_layout(grid.n_axis, grid.dimension, tuple(axes))[2] == 0)


def _split_axes(grid: QuadratureGrid, V: Optional[Potential]) -> tuple:
    """Axes whose reflection leaves V's samples unchanged bit for bit; all for V None."""
    return tuple(range(grid.dimension)) if V is None else tuple(grid.mirror_axes(V.values))


def _wht(x: np.ndarray) -> np.ndarray:
    """x[c] <- sum_q (-1)^popcount(c & q) x[q] in place over the first axis,
    2^a long: quadrant samples to parity classes and back."""
    for k in range(len(x).bit_length() - 1):
        y = x.reshape(-1, 2, 2**k, *x.shape[1:])
        y[:, 0], y[:, 1] = y[:, 0] + y[:, 1], y[:, 0] - y[:, 1]
    return x


@dataclass(frozen=True)
class EigenDecomp:
    """Spectral carrier; modes are orthonormal in the similarity frame and
    stored on the positive cone {x_j > 0 : j in axes} alone, in row-major
    order, with a parity class per column (bit k set: odd in x_axes[k]), each
    class a contiguous column range (class_columns), classes ascending, and
    eigenvalues ascending in each.  Unfold rule: at a node in quadrant q
    (_cone_layout) a mode is its cone value at the node's mirror image times
    (-1)^popcount(class & q).  axes () is the full-row layout, one class."""

    grid: QuadratureGrid
    eigenvalues: np.ndarray
    modes: np.ndarray
    axes: tuple
    classes: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def class_columns(self) -> list:
        b = np.searchsorted(self.classes, np.arange(2 ** len(self.axes) + 1))
        return [slice(lo, hi) for lo, hi in zip(b[:-1], b[1:])]

    def function_frame_apply(self, scalars: np.ndarray, values: np.ndarray):
        """D^(-1/2) Q diag(scalars) Q^T D^(1/2) applied to function samples of
        shape (N,) or (N, k), one function per column: a product pair per
        class on the samples folded (_wht of the quadrants), then unfolded."""
        grid, values = self.grid, np.asarray(values)
        n, d = grid.n_axis, grid.dimension
        dh = np.sqrt(grid.mu_weights).reshape(-1, *(1,) * (values.ndim - 1))
        x = _wht(_quadrants(dh * values, n, d, self.axes))
        g = np.empty((n,) * d + values.shape[1:])
        for c, cols in enumerate(self.class_columns):
            Q = self.modes[:, cols]
            x[c] = Q @ (scalars[cols].reshape(-1, *dh.shape[1:]) * (Q.T @ x[c]))
        for sl, y in zip(_cone_layout(n, d, self.axes)[0], _wht(x)):
            g[sl] = y.reshape(g[sl].shape)
        return g.reshape(values.shape) / dh


def quadrature_spectral_cap(grid: QuadratureGrid) -> float:
    """Largest multiplier value the grid can represent without aliasing."""
    nh = grid.n_axis // 2
    nyq = grid.dimension * (NYQUIST_FACTOR * nh / grid.half_width) ** 2
    return float(min(np.max(np.sum(grid.nodes**2, axis=1)), nyq))


@lru_cache(maxsize=8)
def _axis_free_modes(kappa: float, R: float, n_axis: int, t0: float) -> tuple:
    """Eigenpairs (ascending, read-only) of D^(1/2) K_t0 D^(1/2) on the rank-one
    grid of one axis and each mode's parity (1 odd), memoised per (kappa, R,
    n_axis, t0): one eigh per parity block, the modes exact mirrors."""
    grid = build_grid(RootSystem.z2_product([kappa]), R, n_axis)
    dh, h = np.sqrt(grid.mu_weights), n_axis // 2
    Kt = heat_kernel_matrix(grid, t0)  # a fresh table, scaled in place
    Kt *= dh[:, None]
    Kt *= dh
    Kt = Kt[:, h:] + Kt[h:].T  # the symmetric part (halved below), columns at x > 0
    Kt *= 0.5
    # one eigh per parity block: the rows at x > 0 plus or minus their mirrors
    even, odd = (eigh(b) for b in (Kt[h:] + Kt[h - 1 :: -1], Kt[h:] - Kt[h - 1 :: -1]))
    del Kt
    mu = np.hstack([even[0], odd[0]])
    order = np.argsort(mu, kind="stable")
    mu, parity = mu[order], (order >= h).astype(int)
    Q = np.empty((n_axis, n_axis))  # the unsorted modes on x > 0 in its top half first
    Q[:h, :h], Q[:h, h:] = even[1], odd[1]
    del even, odd
    np.divide(Q[:h, order], np.sqrt(2.0), out=Q[h:])
    np.multiply(np.where(parity, -1.0, 1.0), Q[:h - 1 : -1], out=Q[:h])
    mu.flags.writeable = Q.flags.writeable = parity.flags.writeable = False
    return mu, Q, parity


def free_resolved_modes(grid: QuadratureGrid, t0: float = DEFAULT_T0) -> tuple:
    """Eigenbasis of the reference free kernel with unresolved modes dropped.

    The kernel is a tensor product, so it is decomposed per axis
    (_axis_free_modes): eigenvalues mu = mu_1 ... mu_d (lambda = lambda_1 +
    ... + lambda_d), to which the floor applies, and modes the Kronecker
    products of axis modes.  Returns the eigenvalues, the modes on the cone of
    every axis and their classes (EigenDecomp's layout, bit j odd in x_j), and
    a metadata dict (cap, floor, kept/dropped counts, reference time);
    memoised per (multiplicities, R, n_axis, t0), read-only."""
    return _free_modes(grid, t0, tuple(range(grid.dimension)))


def _free_modes(grid: QuadratureGrid, t0: float, axes: tuple) -> tuple:
    key = tuple(map(float, grid.rs.multiplicities)), grid.half_width, grid.n_axis, float(t0)
    return _kron_modes(*key, axes, quadrature_spectral_cap(grid))


@lru_cache(maxsize=8)  # a rank-one run meets 7 keys, rank two 8
def _kron_modes(kappas: tuple, R: float, n_axis: int, t0: float, axes: tuple, lam_cap: float):
    mus, Qs, pars = zip(*(_axis_free_modes(k, R, n_axis, t0) for k in kappas))
    mu = reduce(np.kron, mus)
    floor = max(np.exp(-t0 * lam_cap), 10.0 * abs(min(mu.min(), 0.0)), 1e-13)
    keep = mu >= floor
    if not keep.any():
        raise CapabilityError(
            f"the grid resolves no free mode: the spectral cap {lam_cap:.3g} sets the floor "
            f"{floor:.3g}, above every reference kernel eigenvalue (largest {mu.max():.3g})")
    cols = np.unravel_index(np.flatnonzero(keep), [len(m) for m in mus])
    classes = sum((pars[j][cols[j]] << k for k, j in enumerate(axes)), 0 * cols[0])
    lam = -np.log(mu[keep]) / t0
    order = np.lexsort((lam, classes))
    # the kept columns of reduce(np.kron, Qs) in that order as np.kron multiplies, on the cone
    P = np.ones((1, len(order)))
    for j, (Q, i) in enumerate(zip(Qs, cols)):
        P = (P[:, None, :] * Q[n_axis // 2 if j in axes else 0:, i[order]]).reshape(-1, len(order))
    meta = {"lam_cap": lam_cap, "floor": float(floor), "n_kept": int(keep.sum()),
            "n_dropped": int((~keep).sum()), "t0": float(t0)}
    lam, classes = lam[order], classes[order]
    lam.flags.writeable = P.flags.writeable = classes.flags.writeable = False
    return lam, P, classes, meta


@dataclass(frozen=True)
class DiscreteOperator:
    """L = A + V on the resolved free modes: their decomposition, on which A
    is diagonal, and V's samples on the cone of its axes times 2^(len(axes)),
    None for no potential (or V = 0)."""

    free: EigenDecomp
    potential: Optional[np.ndarray]


def assemble_L(
    grid: QuadratureGrid,
    V: Optional[Potential] = None,
    t0: float = DEFAULT_T0,
    lam_limit: Optional[float] = None,
) -> DiscreteOperator:
    """The operator on the resolved free modes of the axes whose reflection
    leaves V's samples unchanged bit for bit (all for V None), those up to
    lam_limit if given."""
    axes = _split_axes(grid, V)
    lam, P, classes, meta = (free_resolved_modes(grid, t0) if len(axes) == grid.dimension
                             else _free_modes(grid, t0, axes))
    meta = dict(meta)
    if lam_limit is not None:
        keep = lam <= lam_limit * (1.0 + 1e-9)
        lam, P, classes = lam[keep], P[:, keep], classes[keep]
        meta.update(lam_limit=float(lam_limit), n_kept=int(keep.sum()))
    free = EigenDecomp(grid, lam, P, axes, classes, meta=meta)
    if V is None or not np.any(V.values):
        return DiscreteOperator(free, None)
    return DiscreteOperator(free, 2.0 ** len(axes) * V.values[_cone_nodes(grid, axes)])


def eig(op: DiscreteOperator) -> EigenDecomp:
    """Eigendecomposition of the operator (Galerkin in V): one eigh per parity
    class, as P^T V P couples no two; meta["parity_blocks"] counts them, 1
    when V breaks every reflection.  Each is formed on the cone, where the
    factor 2^(len(axes)) of the potential stands for the other quadrants."""
    free, Vc = op.free, op.potential
    if Vc is None:
        return free

    def block(cols):
        Pc = free.modes[:, cols]
        H = np.diag(free.eigenvalues[cols]) + (Pc.T * Vc) @ Pc
        theta, U = eigh(0.5 * (H + H.T))
        return theta, Pc @ U

    thetas, modes = zip(*(block(cols) for cols in free.class_columns if cols.stop > cols.start))
    meta = dict(free.meta, parity_blocks=len(modes))
    return EigenDecomp(free.grid, np.concatenate(thetas), np.hstack(modes), free.axes,
                       free.classes, meta=meta)


def resolved_calculus(
    grid: QuadratureGrid,
    V: Optional[Potential] = None,
    t0: float = DEFAULT_T0,
    lam_limit: Optional[float] = None,
) -> EigenDecomp:
    """Eigendecomposition of L on the resolved free modes: eig(assemble_L(...))."""
    return eig(assemble_L(grid, V, t0, lam_limit))


# ---------------------------------------------------------------------------
# semigroup paths


def semigroup_apply(ed: EigenDecomp, t: float, f: SampledFunction) -> SampledFunction:
    """Eigencalculus semigroup; t = 0 returns the input unchanged."""
    if t < 0:
        raise InputError("time must be nonnegative")
    if t == 0.0:
        return f
    out = ed.function_frame_apply(np.exp(-t * ed.eigenvalues), np.asarray(f.values))
    return SampledFunction(ed.grid, out)


def semigroup_trotter(
    sm: SpectralMatrix,
    V: Potential,
    t: float,
    n_steps: int,
    f: SampledFunction,
) -> SampledFunction:
    """First-order splitting: alternate the free heat step and e^{-sV}."""
    if n_steps < 1:
        raise InputError("need at least one splitting step")
    s = t / n_steps
    damp = np.exp(-s * V.values)
    cur = f
    for _ in range(n_steps):
        cur = heat_apply(sm, s, cur)
        cur = SampledFunction(sm.grid, damp * cur.values)
    return cur


def splitting_steps(grid: QuadratureGrid, t: float) -> int:
    """Most symmetric splitting steps over time t whose heat step the grid
    resolves: sqrt(2 t / n) >= 1.2 h, h the widest axis spacing; at least 1."""
    h = float(np.max(np.diff(grid.axis)))
    return max(1, int(2.0 * t / (1.2 * h) ** 2))


# entries of the splitting step and of each product below this are set to 0
KERNEL_FLOOR = 1e-150


def _floored(W: np.ndarray) -> np.ndarray:
    np.copyto(W, 0.0, where=W < KERNEL_FLOOR)
    return W


def splitting_kernel(
    grid: QuadratureGrid, V: Optional[Potential], t: float, n_steps: int
) -> tuple:
    """Symmetric splitting product kernel for e^{-tL} against the measure, as
    (W, axes): W is its N x N/2^a columns at the cone nodes (_cone_layout) of
    the axes whose reflection leaves V's samples unchanged bit for bit (all
    for V None), bit for bit those of the whole table; axes () is the whole
    table.  The kernel commutes with those reflections, so the unfold rule is
    W(x, R_q y) = W(R_q x, y): every other column is a mirror copy.

    Each step is e^{-sV/2} K_s e^{-sV/2} with K_s the closed-form heat kernel
    and s = t/n_steps; V None is the free flow.  Every factor is entrywise
    nonnegative and sub-Markov, so the product keeps positivity and the
    max-norm contraction exactly, however rough the potential is.  Each
    product of steps is a quadrature over the grid, so more steps than
    splitting_steps allows are rejected; a single step involves no product
    and is always accepted.  The n-step power is formed by repeated squaring
    (the last power on the cone columns), or, where that costs more (rank two
    and up), by applying the step n - 1 times to its cone columns one axis at
    a time (kron_apply of the n x n axis tables), (n - 1) d n N^2/2^a
    multiply-adds: on the (6, 32)^2 grid, one BLAS thread of a 2-vCPU x86
    guest, 15 and 35 ms for 2 and 4 steps on all N columns against 40-57 and
    77-100 ms squared.

    Entries below KERNEL_FLOOR (1e-150) of the step, the axis tables, every
    product and every operand of an axis product are set to 0: the Gaussian
    tails of K_s underflow on wide grids, and a product with subnormal
    operands runs about ten times slower (256 nodes, s = 0.02: 7-8 ms against
    0.8 ms).  Above the floor every term of a product is a normal double, as
    (1e-150)^2 exceeds 2.2e-308, and so does its product with the least weight
    of the 14/256 grid, 5.4e-6, which an operand of a squaring carries.
    Zeroing only lowers mass, so the kernel stays nonnegative and sub-Markov,
    and row masses, maximum, symmetry and L2 norm move by N 1e-150 at most.

    Measured on the 14/256 kernel grid with splitting_steps: at V = 0 and at
    V = 1 it matches K_t and e^{-t} K_t on interior_mask(0.5) to 1e-11; for
    inverse_power (beta 0.5, cut at r = 1) at t = 0.1 its kernel sup is
    1.2 % below a refined Strang reference (the eigencalculus is 1.1 % above).
    """
    # Rejected: flush-to-zero/denormals-are-zero changes all arithmetic in the
    # process and needs machine code; a floor inside heat_kernel_matrix leaves
    # the products to underflow anew, and heat tables are compared at rtol
    # 1e-14, so the floor belongs to this product alone.  Parity-class blocks
    # would hold a quarter of the table too, but not its exact positivity.
    if t <= 0:
        raise InputError("time must be positive")
    if n_steps < 1:
        raise InputError("need at least one splitting step")
    n_max = splitting_steps(grid, t)
    if n_steps > n_max:
        raise InputError(
            f"splitting step {t / n_steps:.4g} narrower than the grid resolves; "
            f"use at most {n_max} steps"
        )
    axes = _split_axes(grid, V)
    cone = _cone_nodes(grid, axes)
    s = t / n_steps
    damp = np.exp(-0.5 * s * (np.zeros(len(grid)) if V is None else V.values))
    om = grid.mu_weights
    # Cost in multiply-adds: n_steps - 1 steps applied to the iterate axis by
    # axis take (n_steps - 1) d n N^2/2^a, repeated squaring takes
    # (floor(log2 n_steps) + popcount(n_steps) - 1) N^3 at most.  In rank one
    # d n = N, so squaring is never dearer there, and a tie goes to it.
    d, squarings = grid.dimension, n_steps.bit_length() + bin(n_steps).count("1") - 2
    iterate = (n_steps - 1) * d * grid.n_axis < squarings * len(grid)
    cols = cone if iterate or n_steps == 1 else slice(None)
    # the rows of K_s, transposed: it is symmetric bit for bit
    step = np.ascontiguousarray(heat_kernel_matrix(grid, s, cols).T)
    step *= damp[:, None]
    _floored(np.multiply(step, damp[cols], out=step))
    if iterate:
        c, tables = heat_axis_tables(grid, s)
        W, step = step, None  # scaled in place; the step is not read again
        for _ in range(n_steps - 1):
            W *= (damp * om)[:, None]
            for j, T in enumerate(map(_floored, tables)):
                W = kron_apply([T if i == j else None for i in range(d)], _floored(W))
            W *= (c * damp)[:, None]
            _floored(W)
        return W, axes
    W = None
    while n_steps > 1:
        if n_steps & 1:
            W = step if W is None else _floored((W * om[None, :]) @ step)
        n_steps >>= 1
        step = _floored((step * om[None, :]) @ (step[:, cone] if n_steps == 1 else step))
    return (step if W is None else _floored((W * om[None, :]) @ step)), axes


def schrodinger_kernel(ed: EigenDecomp, t: float, rows=None) -> np.ndarray:
    """Kernel matrix of e^{-tL} against the weighted measure, all rows or the
    rows given (an index or a slice of the nodes): entry (x, y) is S[q(x) ^
    q(y)] at their cone rows, S = _wht of the per-class cone tables and q the
    quadrant, the same arithmetic for given rows as for all.  Entry accuracy
    requires the resolved decomposition; the full decomposition's unresolved
    modes do not decay and pollute entries."""
    if t <= 0:
        raise InputError("time must be positive")
    n, d = ed.grid.n_axis, ed.grid.dimension
    quads, row, quad = _cone_layout(n, d, ed.axes)
    dh = np.sqrt(ed.grid.mu_weights[quad == 0])
    left = np.arange(len(dh)) if rows is None else row[rows]
    S = np.empty((len(quads), len(left), len(dh)))
    for c, cols in enumerate(ed.class_columns):
        Qw = ed.modes[:, cols] / dh[:, None]
        np.matmul(Qw[left] * np.exp(-t * ed.eigenvalues[cols]), Qw.T, out=S[c])
    _wht(S)
    at, q = (row, quad) if rows is None else (np.arange(len(left)), quad[rows])
    out = np.empty((len(at),) + (n,) * d)
    for p, sl in enumerate(quads):
        out[(slice(None),) + sl] = S[q ^ p, at].reshape(out[(slice(None),) + sl].shape)
    return out.reshape(len(at), -1)


# ---------------------------------------------------------------------------
# inverse square root and Riesz transforms


SPECTRAL_FLOOR = 1e-8


def check_spectral_floor(ed: EigenDecomp) -> float:
    lam_min = float(np.min(ed.eigenvalues))
    if lam_min < SPECTRAL_FLOOR:
        raise IllPosedError(
            "schrodinger",
            f"smallest eigenvalue {lam_min:.3e} below floor {SPECTRAL_FLOOR:.1e}; "
            "discrete zero mode blocks the inverse square root",
        )
    return lam_min


def inv_sqrt_apply(ed: EigenDecomp, f: SampledFunction) -> SampledFunction:
    check_spectral_floor(ed)
    out = ed.function_frame_apply(ed.eigenvalues**-0.5, np.asarray(f.values))
    return SampledFunction(ed.grid, out)


def subordination_coefficients(eigenvalues: np.ndarray, n_nodes: int) -> np.ndarray:
    """Trapezoid discretization of (1/sqrt(pi)) int e^{-s lambda} ds/sqrt(s)
    under s = e^u, u in [-30, 30]; converges to lambda^(-1/2) for lambda above
    the floor."""
    us = np.linspace(-30.0, 30.0, n_nodes)
    du = us[1] - us[0]
    w = np.full(n_nodes, du)
    w[0] *= 0.5
    w[-1] *= 0.5
    s = np.exp(us)
    integrand = np.exp(us[None, :] / 2.0 - s[None, :] * eigenvalues[:, None])
    return (integrand @ w) / np.sqrt(np.pi)


SUBORDINATION_NODES = 200


def inv_sqrt_subordination(ed: EigenDecomp, f: SampledFunction) -> tuple:
    """Subordination path for L^(-1/2) f; returns (result, error estimate).

    The error estimate is the L2 distance to a node-doubled evaluation.
    """
    check_spectral_floor(ed)
    coef = subordination_coefficients(ed.eigenvalues, SUBORDINATION_NODES)
    out = ed.function_frame_apply(coef, np.asarray(f.values))
    coef2 = subordination_coefficients(ed.eigenvalues, 2 * SUBORDINATION_NODES - 1)
    out2 = ed.function_frame_apply(coef2, np.asarray(f.values))
    res = SampledFunction(ed.grid, out)
    est = SampledFunction(ed.grid, out2 - out).norm_l2()
    return res, est


def riesz_apply(ed: EigenDecomp, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """The Riesz transform T_axis L^(-1/2) of samples of shape (N,) or (N, k),
    one function per column: L^(-1/2) mode by mode, then T_axis along its
    axis."""
    check_spectral_floor(ed)
    return derivative_apply(ed.grid, ed.function_frame_apply(ed.eigenvalues**-0.5, values), axis)


def riesz_matrix(ed: EigenDecomp, axis: int = 0) -> np.ndarray:
    """Dense N x N matrix of T_axis L^(-1/2): riesz_apply to the identity."""
    return riesz_apply(ed, np.eye(len(ed.grid)), axis)


# ---------------------------------------------------------------------------
# weak-type and weighted-kernel reports


def distribution_sup(grid: QuadratureGrid, values: np.ndarray) -> float:
    """Exact sup over lambda of lambda * mu{|values| > lambda}.

    The supremum of the layer-cake ratio is attained at the jump points of
    the decreasing rearrangement, so sorting gives it exactly.
    """
    a = np.abs(np.asarray(values, dtype=float))
    idx = np.argsort(a)[::-1]
    a_sorted = a[idx]
    cum = np.cumsum(grid.mu_weights[idx])
    return float(np.max(a_sorted * cum))


def weak_type_report(ed: EigenDecomp, atoms, axis: int = 0) -> dict:
    """Layer-cake supremum of the Riesz image of normalized indicator atoms.

    atoms: iterable of (center, radius) pairs.  Radii below three grid
    spacings are flagged as under-resolved rather than rejected.
    """
    grid = ed.grid
    atoms = [(np.atleast_1d(np.asarray(c, dtype=float)), float(r)) for c, r in atoms]
    cols = []
    for center, radius in atoms:
        mask = np.linalg.norm(grid.nodes - center[None, :], axis=1) <= radius
        mass = float(np.sum(grid.mu_weights[mask]))
        if mass <= 0:
            raise InputError("atom ball contains no grid nodes")
        cols.append(np.where(mask, 1.0 / mass, 0.0))
    images = riesz_apply(ed, np.stack(cols, axis=1), axis)
    spacing = float(np.max(np.diff(grid.axis)))
    rows = [
        {
            "center": float(center[0]),
            "radius": radius,
            "ratio": distribution_sup(grid, images[:, i]),  # ||b||_1 = 1 by construction
            "under_resolved": bool(radius < 3.0 * spacing),
        }
        for i, (center, radius) in enumerate(atoms)
    ]
    return {"atoms": rows, "sup_ratio": max(r["ratio"] for r in rows)}


def nearest_node_index(grid: QuadratureGrid, y) -> int:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return int(np.argmin(np.linalg.norm(grid.nodes - y[None, :], axis=1)))


TAIL_TIMES = (0.05, 0.1, 0.2, 0.4)


def weighted_estimate_report(ed: EigenDecomp, t_list, y_list, axis: int = 0) -> dict:
    """Weighted gradient-kernel quantities for the kernel W_t.

    Part one: for each probe y and time t, the weighted integral of
    |T W_t(., y)|^2 against phi(./sqrt t, y/sqrt t), normalized by
    t^(gamma + d/2 + 1); boundedness over t is the verification target.
    Part two: the mass of |T W_s(., y)| outside the unit ball of y+ at the
    times s of TAIL_TIMES, fitted to (C / sqrt s) e^(-c / sqrt s); a positive
    fitted c is the verification target.
    """
    grid = ed.grid
    expo = gamma_k(grid.rs) + grid.dimension / 2.0 + 1.0
    probes = [nearest_node_index(grid, y) for y in y_list]
    ynodes = grid.nodes[probes]

    # T W_t(., y), one column per probe y: W is symmetric, so its probe rows give it
    TW = {t: derivative_apply(grid, schrodinger_kernel(ed, t, probes).T, axis)
          for t in (*t_list, *TAIL_TIMES)}
    normalized = {}
    for t in t_list:
        xs = grid.nodes[:, 0] / np.sqrt(t)
        for i, (y, ynode) in enumerate(zip(y_list, ynodes)):
            phiv = phi_profile(grid.rs, xs, ynode / np.sqrt(t))
            lhs = float(np.sum(grid.mu_weights * TW[t][:, i] ** 2 * phiv))
            normalized[(float(y), float(t))] = t**expo * lhs
    outside = [np.linalg.norm(np.abs(grid.nodes) - np.abs(ynode), axis=1) > 1.0 for ynode in ynodes]
    tails = {
        float(y): [float(np.sum(grid.mu_weights[out] * np.abs(TW[s][out, i]))) for s in TAIL_TIMES]
        for i, (y, out) in enumerate(zip(y_list, outside))
    }
    tail_fit = {}
    zs = np.sqrt(1.0 / np.asarray(TAIL_TIMES))
    for y, vals in tails.items():
        logs = np.log(np.maximum(np.asarray(vals), 1e-300) * np.sqrt(TAIL_TIMES))
        slope, intercept = np.polyfit(zs, logs, 1)
        tail_fit[y] = {
            "c": -float(slope),
            "C": float(np.exp(intercept)),
            "integrals": vals,
        }
    return {"normalized_lhs": normalized, "tail_fit": tail_fit, "exponent": expo}


def scaling_identity_gap(rs, R: float, n_axis: int, V_fn: Callable, t: float) -> float:
    """Relative gap in W_t(x, y) = t^(-d/2-gamma) W~_1(x/sqrt t, y/sqrt t).

    W~ is built from the rescaled potential t V(sqrt t .); node sets match
    exactly because Gauss-Legendre nodes scale affinely with the half-width.
    """
    rt = np.sqrt(t)
    grid1 = build_grid(rs, R, n_axis)
    grid2 = build_grid(rs, R / rt, n_axis)
    # grid2's reference time DEFAULT_T0 / t samples the same physical reference kernel;
    # both Galerkin bases are truncated to the common cap of the two ladders
    cap = min(
        free_resolved_modes(grid1, DEFAULT_T0)[0].max(),
        free_resolved_modes(grid2, DEFAULT_T0 / t)[0].max() / t,
    )
    V1 = Potential(V_fn(np.linalg.norm(grid1.nodes, axis=1)))
    V2 = Potential(t * V_fn(rt * np.linalg.norm(grid2.nodes, axis=1)))
    W1 = schrodinger_kernel(resolved_calculus(grid1, V1, lam_limit=cap), t)
    W2 = schrodinger_kernel(resolved_calculus(grid2, V2, DEFAULT_T0 / t, lam_limit=cap * t), 1.0)
    expo = grid1.dimension / 2.0 + gamma_k(rs)
    pred = t**-expo * W2
    scale = np.max(np.abs(W1))
    mask = np.abs(W1) > 1e-3 * scale
    return float(np.max(np.abs(W1 - pred)[mask]) / scale)
