"""Perturbed evolution: assembly, resolved calculus, Riesz machinery."""

import dataclasses
import math
import os
import tempfile
import unittest
from functools import reduce
from unittest import mock

import numpy as np
from numpy.linalg import eigh

from dunklkit.errors import IllPosedError, InputError
from dunklkit.families import hermite_functions
from dunklkit.grids import SampledFunction, build_grid, kron_apply
from dunklkit.heat import axis_factor, heat_axis_tables, heat_kernel_matrix, kernel_prefactor
from dunklkit.intertwine import e_minus_i
from dunklkit.kato import _max_asymmetry, smoothing_norms_of_kernel
from dunklkit.operators import dunkl_derivative, dunkl_derivative_matrix
from dunklkit.reflection import RootSystem
from dunklkit.schrodinger import (
    KERNEL_FLOOR,
    _axis_free_modes,
    _quadrants,
    _wht,
    assemble_L,
    distribution_sup,
    eig,
    free_resolved_modes,
    inv_sqrt_apply,
    inv_sqrt_subordination,
    nearest_node_index,
    potential_from_csv,
    potential_function,
    potential_preset,
    quadrature_spectral_cap,
    resolved_calculus,
    riesz_apply,
    riesz_matrix,
    scaling_identity_gap,
    schrodinger_kernel,
    semigroup_apply,
    semigroup_trotter,
    splitting_kernel,
    splitting_steps,
    weak_type_report,
)
from dunklkit.transform import build_spectral_matrix, c_k


def _full_modes(grid, modes, axes, classes):
    """Modes stored on the positive cone of the axes given, on every node, by
    the unfold rule from the node coordinates: the cone value at the node's
    mirror image (|x_j| on those axes) times -1 for each of them where the
    node is negative and the column's class is odd (bit k for axes[k])."""
    x, axes = grid.nodes, list(axes)
    cone = np.flatnonzero(np.all(x[:, axes] > 0, axis=1))
    at = {tuple(p): r for r, p in enumerate(x[cone])}
    image = x.copy()
    image[:, axes] = np.abs(x[:, axes])
    rows = np.array([at[tuple(p)] for p in image])
    odd = (classes[:, None] >> np.arange(len(axes))) & 1
    return modes[rows] * (-1.0) ** ((x[:, axes] < 0).astype(int) @ odd.T)


class TestPotentials(unittest.TestCase):
    def test_preset_values(self):
        r = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(potential_function("zero")(r), 0.0)
        np.testing.assert_allclose(potential_function("constant", c=2.5)(r), 2.5)
        np.testing.assert_allclose(
            potential_function("soft_coulomb", a=1.0)(r), 1.0 / (1.0 + r**2)
        )
        inv = potential_function("inverse_power", beta=0.5, cutoff=1.0)
        np.testing.assert_allclose(inv(np.array([0.25])), [2.0])
        np.testing.assert_allclose(inv(np.array([1.5])), [0.0])
        bump = potential_function("bump", h=2.0, w=4.0)
        self.assertAlmostEqual(float(bump(np.array([0.0]))[0]), 2.0)
        self.assertEqual(float(bump(np.array([4.0]))[0]), 0.0)

    def test_preset_breaks(self):
        inv = potential_function("inverse_power", beta=0.5, cutoff=1.5)
        self.assertEqual(inv.breaks, (-1.5, 0.0, 1.5))
        self.assertEqual(potential_function("bump", w=3.0).breaks, (-3.0, 0.0, 3.0))
        for name in ("zero", "constant", "soft_coulomb"):
            self.assertEqual(potential_function(name).breaks, (0.0,))

    def test_unknown_preset(self):
        with self.assertRaises(InputError):
            potential_function("bogus")

    def test_csv_roundtrip(self):
        rs = RootSystem.z2_product([0.5])
        grid = build_grid(rs, 6.0, 16)
        f = SampledFunction(grid, np.exp(-grid.nodes[:, 0] ** 2))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.csv")
            f.to_csv(path)
            pot = potential_from_csv(grid, path)
            # complex samples have no CSV form
            with self.assertRaises(InputError):
                SampledFunction(grid, f.values + 0.5j).to_csv(path)
        np.testing.assert_allclose(pot.values, f.values, rtol=1e-10)


def _dense_free_operator(grid):
    """The free operator as the dense congruence (1/c^2) B* B, symmetrized."""
    table = np.ones((len(grid), len(grid)), dtype=complex)
    for j, kap in enumerate(grid.rs.multiplicities):
        xs = grid.nodes[:, j]
        table = table * e_minus_i(np.outer(xs, xs), float(kap))
    omega = grid.mu_weights
    x2 = np.sum(grid.nodes**2, axis=1)
    B = (np.sqrt(x2 * omega)[:, None] * table) * np.sqrt(omega)[None, :]
    H = ((B.conj().T @ B) / c_k(grid.rs) ** 2).real
    return 0.5 * (H + H.T)


class TestAssembly(unittest.TestCase):
    """assemble_L and eig, the two steps of the one operator."""

    @staticmethod
    def kinetic_form_gap(grid, fs):
        """Largest relative gap of <f, L f> with V = None on the resolved free
        modes from the dense congruence (1/c^2) B* B in the similarity frame."""
        ed = eig(assemble_L(grid))
        H, dh = _dense_free_operator(grid), np.sqrt(grid.mu_weights)
        gaps = []
        for f in fs:
            form = np.sum(grid.mu_weights * f * ed.function_frame_apply(ed.eigenvalues, f))
            ref = (dh * f) @ H @ (dh * f)
            gaps.append(abs(form - ref) / ref)
        return max(gaps)

    def test_rank_one_kinetic_form_is_the_dense_congruence(self):
        # to rounding on Hermite combinations (3.4e-14 at most when set)
        rng = np.random.default_rng(3)
        for kappa in (0.5, 1.5):
            for n in (96, 128):
                grid = build_grid(RootSystem.z2_product([kappa]), 10.0, n)
                herm = hermite_functions(5, grid.nodes[:, 0])
                fs = [rng.normal(size=6) @ herm for _ in range(5)]
                with self.subTest(kappa=kappa, n=n):
                    self.assertLess(self.kinetic_form_gap(grid, fs), 1e-12)

    def test_rank_two_kinetic_form_matches_dense_congruence(self):
        # the (6, 32)^2 grid resolves e^(-|x|^2) to 4.6e-6
        grid = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        self.assertLess(self.kinetic_form_gap(grid, [np.exp(-np.sum(grid.nodes**2, axis=1))]), 1e-4)

    def test_potential_shifts_spectrum(self):
        # V = c enters on the cone times 2^d, where the modes have norm^2 2^-d
        for mult, R, n in (([0.5], 10.0, 96), ([0.5, 1.0], 6.0, 24)):
            grid = build_grid(RootSystem.z2_product(mult), R, n)
            free = eig(assemble_L(grid))
            shifted = eig(assemble_L(grid, potential_preset(grid, "constant", c=3.0)))
            np.testing.assert_allclose(shifted.eigenvalues, free.eigenvalues + 3.0, atol=1e-8)

    def test_resolved_calculus_is_eig_of_assemble_L(self):
        rank_two = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 24)
        for grid in (build_grid(RootSystem.z2_product([0.5]), 10.0, 96), rank_two):
            drawn = np.random.default_rng(2).random(len(grid))
            soft = potential_preset(grid, "soft_coulomb", a=1.0)
            for name, V in (("none", None), ("soft", soft),
                            ("drawn", dataclasses.replace(soft, values=drawn))):
                for lam_limit in (None, 20.0):
                    with self.subTest(rank=grid.dimension, V=name, lam_limit=lam_limit):
                        got = resolved_calculus(grid, V, lam_limit=lam_limit)
                        ref = eig(assemble_L(grid, V, lam_limit=lam_limit))
                        for attr in ("eigenvalues", "modes", "classes"):
                            self.assertTrue(np.array_equal(getattr(got, attr), getattr(ref, attr)))
                        self.assertEqual((got.axes, got.meta), (ref.axes, ref.meta))

    def test_operator_holds_the_potential_on_the_cone(self):
        # and none for no potential, whose decomposition is the free modes
        grid = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 24)
        free = assemble_L(grid)
        self.assertIsNone(free.potential)
        self.assertIs(eig(free), free.free)
        self.assertIsNone(assemble_L(grid, potential_preset(grid, "zero")).potential)
        pot = potential_preset(grid, "soft_coulomb", a=1.0)
        op = assemble_L(grid, pot)
        cone = np.all(grid.nodes > 0, axis=1)
        np.testing.assert_array_equal(op.potential, 4.0 * pot.values[cone])
        self.assertEqual(op.free.axes, (0, 1))


class TestResolvedCalculus(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rs = RootSystem.z2_product([0.5])
        cls.grid = build_grid(rs, 12.0, 160)
        cls.ed = resolved_calculus(cls.grid)

    def test_cap_respected(self):
        cap = quadrature_spectral_cap(self.grid)
        self.assertLessEqual(self.ed.eigenvalues.max(), cap * 1.05)
        self.assertGreater(self.ed.meta["n_dropped"], 0)

    def test_free_kernel_matches_closed_form(self):
        for t in (0.3, 1.0):
            W = schrodinger_kernel(self.ed, t)
            K = heat_kernel_matrix(self.grid, t)
            mask = self.grid.interior_mask(0.5)
            gap = np.abs(W - K)[np.ix_(mask, mask)] / np.max(K)
            self.assertLess(np.max(gap), 1e-6)

    def test_free_modes_memoised_read_only(self):
        grid = build_grid(self.grid.rs, 12.0, 64)
        with mock.patch("dunklkit.schrodinger.eigh", wraps=eigh) as solver:
            lam, P, parity, meta = free_resolved_modes(grid, 0.2)
            self.assertEqual([c.args[0].shape for c in solver.call_args_list], [(32, 32)] * 2)
            again = free_resolved_modes(grid, 0.2)
        self.assertEqual(solver.call_count, 2)
        self.assertIs(again[0], lam)
        self.assertIs(again[1], P)
        self.assertIs(again[2], parity)
        for arr in (lam, P, parity):
            self.assertFalse(arr.flags.writeable)
            with self.assertRaises(ValueError):
                arr[0] = 0.0

    def test_kronecker_free_modes_match_dense(self):
        def dense(grid, t0):
            dh = np.sqrt(grid.mu_weights)
            Kt = dh[:, None] * heat_kernel_matrix(grid, t0) * dh[None, :]
            mu, Q = eigh(0.5 * (Kt + Kt.T))
            cap = quadrature_spectral_cap(grid)
            floor = max(np.exp(-t0 * cap), 10.0 * abs(min(mu.min(), 0.0)), 1e-13)
            keep = mu >= floor
            lam = -np.log(mu[keep]) / t0
            order = np.argsort(lam)
            meta = {"n_kept": int(keep.sum()), "n_dropped": int((~keep).sum()), "floor": floor}
            return lam[order], Q[:, keep][:, order], meta

        rank_two = RootSystem.z2_product([0.5, 1.0])
        for kappas, R, n in (((0.5, 1.0), 6.0, 24), ((0.5, 1.0), 6.0, 32), ((0.5,), 14.0, 256)):
            grid = build_grid(RootSystem.z2_product(list(kappas)), R, n)
            lam, P, parity, meta = free_resolved_modes(grid, 0.1)
            # stored on the positive cone; unfolded on every axis, the full rows
            P = _full_modes(grid, P, range(grid.dimension), parity)
            order = np.argsort(lam, kind="stable")
            lam, P, parity = lam[order], P[:, order], parity[order]
            lam_d, P_d, meta_d = dense(grid, 0.1)
            for key, val in meta_d.items():
                self.assertEqual(meta[key], val, msg=f"{key} at n={n}")
            if len(kappas) > 1:
                np.testing.assert_allclose(lam, lam_d, rtol=1e-13, atol=0.0)
            # Weyl: each eigenvalue mu = e^(-t0 lam) of the kernel moves by at
            # most the backward error of either solver, a multiple of eps ||K||
            mu, mu_d = np.exp(-0.1 * lam), np.exp(-0.1 * lam_d)
            self.assertLess(np.max(np.abs(mu - mu_d)), 1e-13 * np.max(mu_d))
            for t in (0.1, 1.0):
                got = (P * np.exp(-t * lam)) @ P.T
                ref = (P_d * np.exp(-t * lam_d)) @ P_d.T
                self.assertLess(np.max(np.abs(got - ref)), 1e-13)
            # each mode is an exact mirror image of itself on every axis
            modes = P.reshape((n,) * len(kappas) + (-1,))
            for j in range(len(kappas)):
                sign = np.where(parity >> j & 1, -1.0, 1.0)
                self.assertTrue(np.array_equal(np.flip(modes, j), sign * modes))

    def test_kept_modes_are_the_kron_chain_columns(self):
        # bit for bit the kept columns of the Kronecker product of axis modes
        for kappas, R, n in (((0.5, 1.0), 6.0, 32), ((0.5, 1.0), 6.0, 24), ((0.5,), 14.0, 256)):
            grid = build_grid(RootSystem.z2_product(list(kappas)), R, n)
            lam, P, parity, meta = free_resolved_modes(grid, 0.1)
            mus, Qs, pars = zip(*(_axis_free_modes(k, R, n, 0.1) for k in kappas))
            mu = reduce(np.kron, mus)
            keep = mu >= meta["floor"]
            # the class is the parities of the axis factors, bit j for axis j
            classes = reduce(np.add.outer, [par << j for j, par in enumerate(pars)]).ravel()
            # by class, ascending lam within each
            kept = np.flatnonzero(keep)
            cols = kept[np.lexsort((-np.log(mu[keep]) / 0.1, classes[kept]))]
            self.assertEqual(P.shape, (len(grid) >> len(kappas), len(cols)))
            full = _full_modes(grid, P, range(grid.dimension), parity)
            self.assertTrue(np.array_equal(full, reduce(np.kron, Qs)[:, cols]))
            self.assertTrue(np.array_equal(parity, classes[cols]))

    def test_kernel_rows_are_rows_of_the_full_kernel(self):
        rank_two = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        pot = potential_preset(rank_two, "soft_coulomb", a=1.0)
        for ed in (self.ed, resolved_calculus(rank_two, pot)):
            n = len(ed.grid)
            for t in (0.3, 1.0):
                W = schrodinger_kernel(ed, t)
                for rows in (slice(0, 128), slice(n - 100, n), np.arange(3, n, 11)):
                    self.assertTrue(np.array_equal(schrodinger_kernel(ed, t, rows), W[rows]))

    def test_kernel_needs_positive_time(self):
        with self.assertRaises(InputError):
            schrodinger_kernel(self.ed, 0.0)

    def test_semigroup_identity_and_composition(self):
        f = SampledFunction(self.grid, np.exp(-self.grid.nodes[:, 0] ** 2 / 2.0))
        self.assertIs(semigroup_apply(self.ed, 0.0, f), f)
        with self.assertRaises(InputError):
            semigroup_apply(self.ed, -1.0, f)
        a = semigroup_apply(self.ed, 0.7, semigroup_apply(self.ed, 0.3, f))
        b = semigroup_apply(self.ed, 1.0, f)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


class TestParitySplit(unittest.TestCase):
    """Solves split by reflection parity against whole-matrix oracles."""

    def test_axis_modes_are_exact_mirrors(self):
        for kappa, R, n in ((0.5, 14.0, 256), (1.0, 6.0, 24), (0.0, 10.0, 128)):
            mu, Q, parity = _axis_free_modes(kappa, R, n, 0.1)
            sign = np.where(parity, -1.0, 1.0)
            self.assertTrue(np.array_equal(Q[::-1], sign * Q))
            self.assertTrue(np.all(np.diff(mu) >= 0))
            grid = build_grid(RootSystem.z2_product([kappa]), R, n)
            dh = np.sqrt(grid.mu_weights)
            Kt = dh[:, None] * heat_kernel_matrix(grid, 0.1) * dh[None, :]
            mu_d, Q_d = eigh(0.5 * (Kt + Kt.T))
            # projectors on the top eigenspaces (gaps of 1 % and more) and
            # spectral functions of the kernel
            for m in (4, 10):
                got, ref = Q[:, -m:] @ Q[:, -m:].T, Q_d[:, -m:] @ Q_d[:, -m:].T
                self.assertLess(np.max(np.abs(got - ref)), 1e-13)
            for k in (1, 10):
                got, ref = (Q * mu**k) @ Q.T, (Q_d * mu_d**k) @ Q_d.T
                self.assertLess(np.max(np.abs(got - ref)), 1e-13)

    def test_axis_modes_equal_the_copying_build(self):
        # the build with a copy per step as the reference, the kernel from
        # the scalar axis factor on every pair: the in-place build gives the
        # same mu, Q and parity bit for bit
        def copying_build(kappa, R, n, t0):
            grid = build_grid(RootSystem.z2_product([kappa]), R, n)
            x = grid.axis
            K = kernel_prefactor(grid.rs, t0) * axis_factor(x[:, None], x[None, :], t0, kappa)
            dh = np.sqrt(grid.mu_weights)
            Kt = dh[:, None] * K * dh[None, :]
            h = n // 2
            even, odd = (eigh(b) for b in _wht(_quadrants(0.5 * (Kt + Kt.T)[:, h:], n, 1, (0,))))
            mu, v = (np.hstack(pair) for pair in zip(even, odd))
            order = np.argsort(mu, kind="stable")
            mu, parity, v = mu[order], (order >= h).astype(int), v[:, order] / np.sqrt(2.0)
            return mu, np.vstack([np.where(parity, -1.0, 1.0) * v[::-1], v]), parity

        for kappa in (0.0, 0.5, 1.5):
            for R, n in ((10.0, 128), (14.0, 256), (10.0, 384), (6.0, 32)):
                with self.subTest(kappa=kappa, R=R, n=n):
                    got = _axis_free_modes.__wrapped__(kappa, R, n, 0.1)
                    for a, b in zip(got, copying_build(kappa, R, n, 0.1)):
                        self.assertTrue(np.array_equal(a, b))

    def test_galerkin_blocks_match_dense_galerkin(self):
        def dense(grid, V, t):  # one eigh on the whole resolved basis
            lam, P, parity, _ = free_resolved_modes(grid)
            P = _full_modes(grid, P, range(grid.dimension), parity)
            theta, U = eigh(np.diag(lam) + (P.T * V.values) @ P)
            Qw = (P @ U) / np.sqrt(grid.mu_weights)[:, None]
            return theta, (Qw * np.exp(-t * theta)) @ Qw.T

        rng = np.random.default_rng(9)
        for mult, R, n in (([0.5], 14.0, 256), ([0.5, 1.0], 6.0, 32), ([0.5, 1.0, 0.0], 5.0, 8)):
            grid = build_grid(RootSystem.z2_product(mult), R, n)
            x = grid.nodes
            pots = [(potential_preset(grid, "soft_coulomb", a=1.0), 2 ** len(mult))]
            if len(mult) == 2:
                # drawn at random, no reflection leaves it unchanged: one
                # block; even in the second coordinate alone: two blocks
                drawn = rng.random(len(grid)) * np.exp(-np.sum(x**2, axis=1))
                pots += [(dataclasses.replace(pots[0][0], values=drawn), 1),
                         (dataclasses.replace(pots[0][0], values=np.exp(x[:, 0] - x[:, 1] ** 2)), 2)]
            for pot, blocks in pots:
                ed = resolved_calculus(grid, pot)
                self.assertEqual(ed.meta["parity_blocks"], blocks)
                for t in (0.3, 1.0):
                    with self.subTest(rank=len(mult), blocks=blocks, t=t):
                        theta, ref = dense(grid, pot, t)
                        np.testing.assert_allclose(np.sort(ed.eigenvalues), theta, rtol=0,
                                                   atol=1e-12 * theta[-1])
                        gap = np.max(np.abs(schrodinger_kernel(ed, t) - ref))
                        self.assertLess(gap, 1e-12 * np.max(np.abs(ref)))


class TestConeLayout(unittest.TestCase):
    """The cone calculus against the dense formulas on the unfolded modes."""

    @staticmethod
    def potentials(grid, rng):
        """(potential, parity blocks): radial (2^d), drawn at random (1) and,
        from rank two, even in every coordinate but the first (2^(d-1))."""
        x = grid.nodes
        base = potential_preset(grid, "soft_coulomb", a=1.0)
        drawn = rng.random(len(grid)) * np.exp(-np.sum(x**2, axis=1))
        out = [(base, 2 ** grid.dimension), (dataclasses.replace(base, values=drawn), 1)]
        if grid.dimension > 1:
            odd_first = np.exp(x[:, 0] - np.sum(x[:, 1:] ** 2, axis=1))
            out.append((dataclasses.replace(base, values=odd_first), 2 ** (grid.dimension - 1)))
        return out

    def test_cone_calculus_matches_unfolded_dense(self):
        rng = np.random.default_rng(21)
        for mult, R, n in (([0.5], 14.0, 256), ([0.5, 1.0], 6.0, 32), ([0.5, 1.0, 0.0], 5.0, 8)):
            grid = build_grid(RootSystem.z2_product(mult), R, n)
            N, dh = len(grid), np.sqrt(grid.mu_weights)
            for pot, blocks in self.potentials(grid, rng):
                ed = resolved_calculus(grid, pot)
                self.assertEqual(ed.meta["parity_blocks"], blocks)
                self.assertEqual(len(ed.modes), N >> len(ed.axes))
                Q = _full_modes(grid, ed.modes, ed.axes, ed.classes)
                k = Q.shape[1]
                self.assertLess(np.max(np.abs(Q.T @ Q - np.eye(k))), 1e-12)
                # and they diagonalize L on the resolved free basis, V on every node
                lam, P, parity, _ = free_resolved_modes(grid)
                PtQ = _full_modes(grid, P, range(grid.dimension), parity).T @ Q
                H = (PtQ.T * lam) @ PtQ + (Q.T * pot.values) @ Q
                gap = np.max(np.abs(H - np.diag(ed.eigenvalues)))
                self.assertLess(gap, 1e-12 * np.max(ed.eigenvalues))
                # classes ascending, each a contiguous range of ascending eigenvalues
                self.assertTrue(np.all(np.diff(ed.classes) >= 0))
                for cols in ed.class_columns:
                    self.assertTrue(np.all(np.diff(ed.eigenvalues[cols]) >= 0))
                f = rng.normal(size=(N, 3)) * np.exp(-np.sum(grid.nodes**2, axis=1) / 8.0)[:, None]
                for t in (0.3, 1.0):
                    with self.subTest(rank=len(mult), blocks=blocks, t=t):
                        s = np.exp(-t * ed.eigenvalues)
                        ref = (Q @ (s[:, None] * (Q.T @ (dh[:, None] * f)))) / dh[:, None]
                        scale = np.max(np.abs(ref))
                        got = ed.function_frame_apply(s, f)
                        self.assertLess(np.max(np.abs(got - ref)), 1e-13 * scale)
                        one = ed.function_frame_apply(s, f[:, 1])
                        self.assertEqual(one.shape, (N,))
                        self.assertLess(np.max(np.abs(one - ref[:, 1])), 1e-13 * scale)
                        Qw = Q / dh[:, None]
                        W = (Qw * s) @ Qw.T
                        for rows in (None, slice(N // 3, N // 3 + 40), np.arange(5, N, 7)):
                            ref_rows = W if rows is None else W[rows]
                            gap = np.max(np.abs(schrodinger_kernel(ed, t, rows) - ref_rows))
                            self.assertLess(gap, 1e-13 * np.max(np.abs(W)))

    def test_rank_two_modes_hold_a_quarter_of_the_rows(self):
        grid = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        lam, P, parity, meta = free_resolved_modes(grid)
        self.assertEqual(P.shape, (len(grid) // 4, meta["n_kept"]))
        for pot in (None, potential_preset(grid, "soft_coulomb", a=1.0),
                    potential_preset(grid, "constant", c=0.8)):
            ed = resolved_calculus(grid, pot)
            self.assertEqual(ed.axes, (0, 1))
            self.assertEqual(ed.modes.shape, (len(grid) // 4, meta["n_kept"]))
            self.assertTrue(np.array_equal(ed.classes, parity))

    def test_free_modes_memoised_by_value(self):
        # separately built grids with equal parameters share one decomposition
        rs = RootSystem.z2_product([0.25])
        first = free_resolved_modes(build_grid(rs, 9.0, 48), 0.1)
        again = free_resolved_modes(build_grid(rs, 9.0, 48), 0.1)
        self.assertTrue(all(a is b for a, b in zip(first, again)))


class TestTrotter(unittest.TestCase):
    def test_first_order_error_halves(self):
        rs = RootSystem.z2_product([0.5])
        grid = build_grid(rs, 10.0, 96)
        sm = build_spectral_matrix(grid)
        pot = potential_preset(grid, "soft_coulomb", a=1.0)
        ed = resolved_calculus(grid, pot)
        f = SampledFunction(grid, np.exp(-grid.nodes[:, 0] ** 2 / 2.0))
        ref = semigroup_apply(ed, 0.5, f)
        errs = []
        for n in (8, 16, 32):
            got = semigroup_trotter(sm, pot, 0.5, n, f)
            errs.append(SampledFunction(grid, got.values - ref.values).norm_l2())
        for e1, e2 in zip(errs, errs[1:]):
            self.assertAlmostEqual(e1 / e2, 2.0, delta=0.4)
        with self.assertRaises(InputError):
            semigroup_trotter(sm, pot, 0.5, 0, f)


class TestSplittingKernel(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rs = RootSystem.z2_product([0.5])
        cls.grid = build_grid(rs, 14.0, 256)
        cls.mask = cls.grid.interior_mask(0.5)
        cls.cone = np.flatnonzero(cls.grid.nodes[:, 0] > 0)

    def kernel(self, V, t):
        """The kernel's columns at x > 0; every V here is even, so the column
        at -y is the one at y with the rows reversed."""
        W, axes = splitting_kernel(self.grid, V, t, splitting_steps(self.grid, t))
        self.assertEqual(axes, (0,))
        return W

    def test_positive_and_sub_markov_for_rough_potential(self):
        pot = potential_preset(self.grid, "inverse_power", beta=0.5, cutoff=1.0)
        for t in (0.1, 1.0):
            W = self.kernel(pot, t)
            self.assertGreaterEqual(float(np.min(W)), 0.0)
            row_mass = (W + W[::-1]) @ self.grid.mu_weights[self.cone]
            self.assertLessEqual(float(np.max(row_mass)), 1.0 + 1e-12)

    def test_free_flow_is_closed_form_kernel(self):
        for t in (0.1, 1.0):
            gap = np.abs(self.kernel(None, t) - heat_kernel_matrix(self.grid, t)[:, self.cone])
            self.assertLessEqual(float(np.max(gap[np.ix_(self.mask, self.mask[self.cone])])), 1e-10)

    def test_constant_potential_damps_exactly(self):
        c = 1.5
        pot = potential_preset(self.grid, "constant", c=c)
        for t in (0.1, 1.0):
            ref = math.exp(-c * t) * heat_kernel_matrix(self.grid, t)[:, self.cone]
            gap = np.abs(self.kernel(pot, t) - ref)
            self.assertLessEqual(float(np.max(gap[np.ix_(self.mask, self.mask[self.cone])])), 1e-10)

    def test_floor_drops_only_what_no_norm_sees(self):
        # the same product of steps by repeated squaring without the floor, on
        # its cone columns: the floored kernel has no entry in (0,
        # KERNEL_FLOOR); rank one squares too and keeps the same sup and row
        # masses, rank two steps axis by axis and agrees to rounding
        rank_two = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        for grid, times in ((self.grid, (0.1, 1.0)), (rank_two, (0.5, 1.0))):
            pot = potential_preset(grid, "inverse_power", beta=0.5, cutoff=1.0)
            om = grid.mu_weights
            cone = np.flatnonzero(np.all(grid.nodes > 0, axis=1))
            for t in times:
                n = splitting_steps(grid, t)
                damp = np.exp(-0.5 * (t / n) * pot.values)
                step = damp[:, None] * heat_kernel_matrix(grid, t / n) * damp[None, :]
                ref = None
                while True:
                    if n & 1:
                        ref = step if ref is None else (ref * om[None, :]) @ step
                    n >>= 1
                    if not n:
                        break
                    step = (step * om[None, :]) @ step
                ref = ref[:, cone]
                W, axes = splitting_kernel(grid, pot, t, splitting_steps(grid, t))
                self.assertEqual(axes, tuple(range(grid.dimension)))
                row_mass = lambda M: smoothing_norms_of_kernel(grid, M, [], axes).corner_norms[
                    ("inf", "inf")]
                self.assertTrue(np.all((W == 0.0) | (W >= KERNEL_FLOOR)))
                if grid is self.grid:
                    self.assertLessEqual(float(np.max(np.abs(W - ref))), 1e-140)
                    self.assertEqual(np.max(W), np.max(ref))
                    self.assertEqual(row_mass(W), row_mass(ref))
                else:
                    self.assertLessEqual(float(np.max(np.abs(W - ref))), 1e-13 * np.max(ref))
                    skew = max(map(_max_asymmetry, _quadrants(W, grid.n_axis, 2, axes)))
                    self.assertLessEqual(skew, 1e-12 * np.max(W))
                    self.assertLessEqual(row_mass(W), 1.0 + 1e-12)

    def test_axis_steps_in_place_are_bit_identical(self):
        # the per-axis product on every column, each operand a new array, as
        # the reference: the kernel's columns at the cone of the axes V leaves
        # mirror-invariant are bit for bit the reference's there; a drawn V
        # breaks every reflection and keeps every column
        grid = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        pot = potential_preset(grid, "inverse_power", beta=0.5, cutoff=1.0)
        drawn = np.random.default_rng(4).random(len(grid)) * np.exp(-np.sum(grid.nodes**2, axis=1))
        cone = np.flatnonzero(np.all(grid.nodes > 0, axis=1))
        om = grid.mu_weights
        floored = lambda A: np.where(A < KERNEL_FLOOR, 0.0, A)
        cases = [(pot, (0, 1), cone), (None, (0, 1), cone),
                 (potential_preset(grid, "soft_coulomb", a=1.0), (0, 1), cone),
                 (dataclasses.replace(pot, values=drawn), (), np.arange(len(grid)))]
        for V, split, cols in cases:
            for t in (0.1, 0.5, 1.0):
                n = splitting_steps(grid, t)
                s = t / n
                damp = np.exp(-0.5 * s * (np.zeros(len(grid)) if V is None else V.values))
                c, axes = heat_axis_tables(grid, s)
                axes = [floored(T) for T in axes]
                ref = floored(damp[:, None] * heat_kernel_matrix(grid, s) * damp[None, :])
                for _ in range(n - 1):
                    ref = (damp * om)[:, None] * ref
                    ref = kron_apply([axes[0], None], floored(ref))
                    ref = kron_apply([None, axes[1]], floored(ref))
                    ref = floored((c * damp)[:, None] * ref)
                self.assertEqual(n > 1, t > 0.1)
                W, axes = splitting_kernel(grid, V, t, n)
                self.assertEqual(axes, split)
                self.assertTrue(np.array_equal(W, ref[:, cols]))

    def test_step_below_resolution_floor_rejected(self):
        pot = potential_preset(self.grid, "soft_coulomb", a=1.0)
        n = splitting_steps(self.grid, 1.0)
        self.assertGreater(n, 1)
        splitting_kernel(self.grid, pot, 1.0, n)
        with self.assertRaises(InputError):
            splitting_kernel(self.grid, pot, 1.0, n + 1)
        with self.assertRaises(InputError):
            splitting_kernel(self.grid, pot, 1.0, 0)


class TestInverseSquareRoot(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rs = RootSystem.z2_product([0.5])
        cls.grid = build_grid(rs, 10.0, 96)
        pot = potential_preset(cls.grid, "constant", c=1.0)
        cls.ed = resolved_calculus(cls.grid, pot)
        xs = cls.grid.nodes[:, 0]
        cls.f = SampledFunction(cls.grid, np.exp(-(xs**2) / 2.0) * (1.0 + 0.3 * xs))

    def test_subordination_matches_eigencalculus(self):
        direct = inv_sqrt_apply(self.ed, self.f)
        sub, est = inv_sqrt_subordination(self.ed, self.f)
        gap = SampledFunction(self.grid, sub.values - direct.values).norm_l2()
        self.assertLess(gap, 1e-6)
        self.assertLess(est, 1e-6)

    def test_floor_guard(self):
        # a zero mode blocks the inverse square root
        ev = self.ed.eigenvalues
        ed0 = dataclasses.replace(self.ed, eigenvalues=ev - ev[0])
        with self.assertRaises(IllPosedError):
            inv_sqrt_apply(ed0, self.f)

    def test_riesz_matches_dense_kronecker(self):
        # T_j applied along its axis against kron(T, I) @ L^(-1/2), on the
        # rank-two kernel grid of a scene
        grid = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        ed = resolved_calculus(grid, potential_preset(grid, "soft_coulomb", a=1.0))
        eye = np.eye(grid.n_axis)
        inv_sqrt = ed.function_frame_apply(ed.eigenvalues**-0.5, np.eye(len(grid)))
        for axis in (0, 1):
            T = dunkl_derivative_matrix(grid, axis)
            dense = np.kron(T, eye) if axis == 0 else np.kron(eye, T)
            ref = dense @ inv_sqrt
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(
                riesz_matrix(ed, axis) / scale, ref / scale, rtol=0, atol=1e-14
            )

    def test_riesz_batch_matches_columns(self):
        # a stacked batch and its columns one at a time, on a rank-one grid
        # and on the rank-two kernel grid of a scene, along every axis
        rng = np.random.default_rng(11)
        for mult, R, n in (([0.5], 10.0, 96), ([0.5, 1.0], 6.0, 32)):
            grid = build_grid(RootSystem.z2_product(mult), R, n)
            ed = resolved_calculus(grid, potential_preset(grid, "soft_coulomb", a=1.0))
            envelope = np.exp(-np.sum(grid.nodes**2, axis=1) / 4.0)
            X = rng.normal(size=(len(grid), 5)) * envelope[:, None]
            for axis in range(grid.dimension):
                with self.subTest(dimension=grid.dimension, axis=axis):
                    batch = riesz_apply(ed, X, axis)
                    cols = np.stack([riesz_apply(ed, x, axis) for x in X.T], axis=1)
                    scale = np.max(np.abs(cols))
                    np.testing.assert_allclose(batch / scale, cols / scale, rtol=0, atol=1e-13)

    def test_riesz_paths_agree(self):
        # riesz_matrix, riesz_apply of the identity, against T of inv_sqrt_apply
        via_matrix = riesz_matrix(self.ed) @ self.f.values
        via_apply = dunkl_derivative(self.grid, inv_sqrt_apply(self.ed, self.f))
        np.testing.assert_allclose(via_apply.values, via_matrix, atol=1e-9)


class TestWeakType(unittest.TestCase):
    def test_distribution_sup_two_level(self):
        rs = RootSystem.z2_product([0.0])
        grid = build_grid(rs, 1.0, 8)
        vals = np.zeros(len(grid))
        vals[2] = 3.0
        vals[5] = 1.0
        w = grid.mu_weights
        expect = max(3.0 * w[2], 1.0 * (w[2] + w[5]))
        self.assertAlmostEqual(distribution_sup(grid, vals), expect, places=12)

    def test_report_flags_and_errors(self):
        rs = RootSystem.z2_product([0.5])
        grid = build_grid(rs, 8.0, 64)
        ed = resolved_calculus(grid, potential_preset(grid, "constant", c=1.0))
        rep = weak_type_report(ed, [(0.0, 1.5), (0.0, 0.05)])
        self.assertFalse(rep["atoms"][0]["under_resolved"])
        self.assertTrue(rep["atoms"][1]["under_resolved"])
        self.assertGreater(rep["sup_ratio"], 0.0)
        with self.assertRaises(InputError):
            weak_type_report(ed, [(100.0, 0.01)])

    def test_report_matches_atoms_one_at_a_time(self):
        rs = RootSystem.z2_product([0.5])
        grid = build_grid(rs, 8.0, 64)
        ed = resolved_calculus(grid, potential_preset(grid, "soft_coulomb", a=1.0))
        atoms = [(0.0, 1.5), (0.0, 0.05), (1.3, 0.5), (-2.0, 0.8)]
        rep = weak_type_report(ed, atoms)
        alone = []
        for center, radius in atoms:
            mask = np.abs(grid.nodes[:, 0] - center) <= radius
            b = np.where(mask, 1.0 / np.sum(grid.mu_weights[mask]), 0.0)
            alone.append(distribution_sup(grid, riesz_apply(ed, b)))
        np.testing.assert_allclose([r["ratio"] for r in rep["atoms"]], alone, rtol=1e-13)
        self.assertEqual(rep["sup_ratio"], max(r["ratio"] for r in rep["atoms"]))

    def test_nearest_node(self):
        rs = RootSystem.z2_product([0.5])
        grid = build_grid(rs, 8.0, 64)
        i = nearest_node_index(grid, grid.nodes[17])
        self.assertEqual(i, 17)


class TestScaling(unittest.TestCase):
    def test_rescaled_kernel_identity(self):
        rs = RootSystem.z2_product([0.5])
        gap = scaling_identity_gap(
            rs, 8.0, 96, potential_function("soft_coulomb", a=1.0), 2.0
        )
        self.assertLess(gap, 1e-4)


if __name__ == "__main__":
    unittest.main()
