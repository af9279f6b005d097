"""Spectral matrix, roundtrip, translation, convolution."""

import math
import unittest
from functools import reduce

import numpy as np

from dunklkit import families
from dunklkit.errors import InputError
from dunklkit.grids import SampledFunction, build_grid
from dunklkit.intertwine import e_minus_i, nu_quadrature
from dunklkit.reflection import RootSystem
from dunklkit.transform import (
    _axis_spectral,
    build_spectral_matrix,
    c_k,
    convolve,
    dunkl_transform,
    inverse_transform,
    parseval_defect,
    refinement_defect_slope,
    translate_radial,
)


def _setup(kappa, R=10.0, n=96):
    rs = RootSystem.z2_product([kappa])
    grid = build_grid(rs, R, n)
    return build_spectral_matrix(grid)


class TestNormalization(unittest.TestCase):
    def test_classical_constant(self):
        rs = RootSystem.z2_product([0.0])
        self.assertAlmostEqual(c_k(rs), math.sqrt(2.0 * math.pi), places=12)

    def test_product_constant(self):
        rs2 = RootSystem.z2_product([0.4, 0.9])
        a = c_k(RootSystem.z2_product([0.4]))
        b = c_k(RootSystem.z2_product([0.9]))
        self.assertAlmostEqual(c_k(rs2), a * b, places=10)


class TestRoundtrip(unittest.TestCase):
    def test_roundtrip_and_parseval(self):
        for kap in (0.0, 0.5, 1.5):
            sm = _setup(kap, n=128)
            xs = sm.grid.nodes[:, 0]
            rng = np.random.default_rng(2)
            f = SampledFunction(sm.grid, families.random_band_limited(xs, rng))
            g = SampledFunction(sm.grid, families.random_band_limited(xs, rng))
            back = inverse_transform(sm, dunkl_transform(sm, f))
            rel = SampledFunction(sm.grid, back.values - f.values).norm_l2()
            self.assertLess(rel / f.norm_l2(), 1e-6)
            self.assertLess(parseval_defect(sm, f, g), 1e-8)

    def test_inverse_is_forward_with_negation(self):
        # odd input: the two transforms differ by a sign
        sm = _setup(0.5)
        xs = sm.grid.nodes[:, 0]
        f = SampledFunction(sm.grid, xs * np.exp(-(xs**2)))
        fwd = dunkl_transform(sm, f)
        inv = inverse_transform(sm, f)
        np.testing.assert_allclose(inv.values, -fwd.values, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        sm = _setup(0.5)
        other = build_grid(sm.grid.rs, 10.0, 96)
        f = SampledFunction(other, np.zeros(len(other)))
        with self.assertRaises(InputError):
            dunkl_transform(sm, f)


class TestPerAxisTable(unittest.TestCase):
    GRIDS = (((0.5, 1.0), 6.0, 24), ((0.0, 0.5), 6.0, 32), ((0.5,), 10.0, 128))

    def test_matches_outer_product_formula(self):
        # each factor against E(x, -i xi) on the axis's rank-one grid, and
        # their Kronecker product against the dense forward matrix
        for kappas, R, n in self.GRIDS:
            grid = build_grid(RootSystem.z2_product(list(kappas)), R, n)
            sm = build_spectral_matrix(grid)
            self.assertEqual(sm.factors.shape, (len(kappas), n, n))
            for j, kap in enumerate(kappas):
                axis_grid = build_grid(RootSystem.z2_product([kap]), R, n)
                E = e_minus_i(np.outer(grid.axis, grid.axis), kap)
                oracle = (E * axis_grid.mu_weights[:, None]).T / c_k(axis_grid.rs)
                self.assertTrue(np.array_equal(sm.factors[j], oracle))
            table = np.ones((len(grid), len(grid)), dtype=complex)
            for j, kap in enumerate(kappas):
                xs = grid.nodes[:, j]
                table = table * e_minus_i(np.outer(xs, xs), kap)
            dense = (table * grid.mu_weights[:, None]).T / sm.ck
            kron = reduce(np.kron, sm.factors)
            scale = np.max(np.abs(dense))
            np.testing.assert_allclose(kron / scale, dense / scale, rtol=0, atol=1e-14)

    def test_forward_is_formed_once(self):
        # the axis table is memoised per (kappa, R, n): a second grid reuses it
        sm = _setup(0.5)
        E, w, c = _axis_spectral(0.5, 10.0, 96)
        self.assertIs(E, _axis_spectral(0.5, 10.0, 96)[0])
        self.assertFalse(E.flags.writeable or w.flags.writeable)
        self.assertFalse(sm.factors.flags.writeable)
        self.assertTrue(np.array_equal(sm.factors[0], (E * w[:, None]).T / c))
        self.assertTrue(np.array_equal(_setup(0.5).factors, sm.factors))


class TestTranslation(unittest.TestCase):
    def test_row_blocks_match_one_array(self):
        # 100 rows: one full block of 64 and a partial one
        sm = _setup(0.5, n=100)
        grid, x = sm.grid, np.array([0.9])
        prof = lambda r: np.exp(-(r**2) / 2.0)
        q = nu_quadrature(grid.rs, x)
        arg2 = np.sum(grid.nodes**2, axis=1)[:, None] + (x @ x) + 2.0 * (grid.nodes @ q.nodes.T)
        ref = prof(np.sqrt(np.maximum(arg2, 0.0))) @ q.weights
        got = translate_radial(grid, x, prof)
        self.assertTrue(np.array_equal(got.values, ref))

    def test_translate_at_origin_is_identity(self):
        sm = _setup(0.7)
        prof = lambda r: np.exp(-(r**2) / 2.0)
        got = translate_radial(sm.grid, [0.0], prof)
        xs = np.abs(sm.grid.nodes[:, 0])
        np.testing.assert_allclose(got.values, prof(xs), atol=1e-12)

    def test_translation_phase_identity(self):
        # transform side: translation multiplies by the deformed phase E(x, i xi)
        from dunklkit.intertwine import dunkl_kernel

        sm = _setup(0.5, R=12.0, n=128)
        prof = lambda r: np.exp(-(r**2) / 2.0)
        f = SampledFunction(sm.grid, prof(np.abs(sm.grid.nodes[:, 0])))
        x = [1.3]
        tau = translate_radial(sm.grid, x, prof)
        lhs = dunkl_transform(sm, tau)
        phase = dunkl_kernel(sm.grid.rs, x, 1j * sm.grid.nodes)
        rhs = phase * dunkl_transform(sm, f).values
        scale = np.max(np.abs(rhs))
        np.testing.assert_allclose(lhs.values / scale, rhs / scale, atol=1e-7)


def spectral_heat_sample(sm, t):
    """The function with spectral profile e^{-t |xi|^2}, sampled on the grid."""
    prof = SampledFunction(sm.grid, np.exp(-t * np.sum(sm.grid.nodes**2, axis=1)).astype(complex))
    return SampledFunction(sm.grid, inverse_transform(sm, prof).values.real)


class TestConvolution(unittest.TestCase):
    def test_heat_semigroup_through_convolution(self):
        sm = _setup(0.5, n=128)
        e1 = spectral_heat_sample(sm, 0.3)
        e2 = spectral_heat_sample(sm, 0.4)
        e3 = spectral_heat_sample(sm, 0.7)
        f1 = SampledFunction(sm.grid, e1.values.astype(complex))
        f2 = SampledFunction(sm.grid, e2.values.astype(complex))
        conv = convolve(sm, f1, f2)
        mask = sm.grid.interior_mask(0.5)
        np.testing.assert_allclose(
            conv.values.real[mask], e3.values[mask], atol=1e-7
        )


class TestRefinement(unittest.TestCase):
    def test_roundtrip_defect_decays(self):
        rs = RootSystem.z2_product([0.5])

        def probe(sm):
            xs = sm.grid.nodes[:, 0]
            f = SampledFunction(sm.grid, families.gaussian(xs, 0.8))
            back = inverse_transform(sm, dunkl_transform(sm, f))
            return SampledFunction(sm.grid, back.values - f.values).norm_l2()

        slope = refinement_defect_slope(rs, 10.0, (32, 48, 64), probe)
        self.assertGreater(slope, 2.0)


if __name__ == "__main__":
    unittest.main()
