"""Closed-form heat kernel, semigroup action, Gaussian envelope fits."""

import math
import unittest
from functools import reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from dunklkit.errors import InputError
from dunklkit.grids import SampledFunction, build_grid
from dunklkit.heat import (
    _gauss,
    axis_factor,
    even_axis_factor,
    gaussian_bound_report,
    heat_apply,
    heat_axis_tables,
    heat_kernel,
    heat_kernel_matrix,
    kernel_prefactor,
)
from dunklkit.intertwine import scaled_e_even
from dunklkit.reflection import RootSystem
from dunklkit.transform import build_spectral_matrix


class TestEvenAxisFactor(unittest.TestCase):
    def test_skipped_bessel_term_is_exact(self):
        # the Bessel term is taken only where the Gaussian is > 0 and x y != 0;
        # on the x = 0 rows and the underflowed entries the factor is the
        # Gaussian itself, bit for bit the product with the term
        x = np.array([0.0, -0.0, 0.05, 0.7, 3.0, 30.0])
        y = np.concatenate([[0.0], np.geomspace(1e-6, 150.0, 200)])
        rows = np.repeat(np.arange(len(x)), len(y))
        for kappa in (0.0, 0.5, 1.5):
            for t in (1e-3, 0.3, 2.0):
                ref = scaled_e_even(x[:, None] * y / (2.0 * t), kappa) * _gauss(x[:, None], y, t)
                self.assertTrue((ref[:2] > 0).any() and (ref == 0).any(), (kappa, t))
                got = even_axis_factor(x[:, None], y, t, kappa)
                self.assertTrue(np.array_equal(got, ref), (kappa, t))
                # the kato layout: (points, 1) probes and ys, (points, m) times
                ts = np.full((len(rows), 3), t) * [1.0, 0.5, 0.25]
                got = even_axis_factor(x[rows, None], np.tile(y, len(x))[:, None], ts, kappa)
                ref = scaled_e_even(x[rows, None] * np.tile(y, len(x))[:, None] / (2.0 * ts), kappa)
                ref = ref * _gauss(x[rows, None], np.tile(y, len(x))[:, None], ts)
                self.assertTrue(np.array_equal(got, ref), (kappa, t))


class TestPointwiseKernel(unittest.TestCase):
    def test_symmetry_and_positivity(self):
        rs = RootSystem.z2_product([0.5, 1.0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-4, 4, size=2)
            y = rng.uniform(-4, 4, size=2)
            a = heat_kernel(rs, 0.7, x, y)
            b = heat_kernel(rs, 0.7, y, x)
            self.assertGreater(a, 0.0)
            self.assertAlmostEqual(a, b, places=13)

    def test_classical_limit(self):
        # kappa = 0 collapses to the Gauss kernel with 4 pi t normalization
        rs = RootSystem.z2_product([0.0])
        for t in (0.1, 1.0):
            for x, y in ((0.3, -1.2), (2.0, 2.5)):
                got = heat_kernel(rs, t, [x], [y])
                ref = math.exp(-((x - y) ** 2) / (4 * t)) / math.sqrt(4 * math.pi * t)
                self.assertAlmostEqual(got, ref, places=12)

    def test_invalid_time(self):
        rs = RootSystem.z2_product([0.5])
        with self.assertRaises(InputError):
            heat_kernel(rs, 0.0, [1.0], [1.0])
        with self.assertRaises(InputError):
            heat_kernel(rs, np.array([0.5, 0.0]), [[1.0], [1.0]], [[1.0], [1.0]])

    def test_batched_times_match_pointwise(self):
        rs = RootSystem.z2_product([0.5, 1.0])
        rng = np.random.default_rng(3)
        ts = rng.choice([0.1, 0.5, 1.0], size=30)
        x, y = rng.uniform(-4, 4, size=(2, 30, 2))
        got = heat_kernel(rs, ts, x, y)
        ref = [heat_kernel(rs, t, xi, yi) for t, xi, yi in zip(ts, x, y)]
        np.testing.assert_array_equal(got, ref)

    def test_nan_or_underflow_raises(self):
        # x y / 2t = 1e10 underflows; NaN must not pass
        rs = RootSystem.z2_product([0.5])
        for t, x in ((1e-9, 0.7), (1.0, np.nan)):
            with self.assertRaises(InputError):
                heat_kernel(rs, t, [[x]], [[30.0]])

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.floats(0.1, 4.0),
        kappas=st.lists(st.sampled_from([0.0, 0.5, 1.5]), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_symmetric_and_positive_under_sign_flips(self, t, kappas, data):
        rs = RootSystem.z2_product(kappas)
        d = len(kappas)
        coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
        signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)
        x = np.array(data.draw(coords))
        y = np.array(data.draw(coords))
        kxy = heat_kernel(rs, t, x, y)
        self.assertEqual(kxy, heat_kernel(rs, t, y, x))
        sx, sy = np.array(data.draw(signs)), np.array(data.draw(signs))
        self.assertGreater(heat_kernel(rs, t, sx * x, sy * y), 0.0)


class TestKernelMatrix(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rs = RootSystem.z2_product([0.5])
        cls.grid = build_grid(rs, 14.0, 256)

    def test_matches_pointwise(self):
        rank_two = build_grid(RootSystem.z2_product([0.5, 1.5]), 6.0, 12)
        for grid in (self.grid, rank_two):
            K = heat_kernel_matrix(grid, 0.4)
            ref = heat_kernel(grid.rs, 0.4, grid.nodes[:, None, :], grid.nodes[None, :, :])
            np.testing.assert_allclose(K, ref, rtol=1e-14, atol=0.0)

    def test_mass_one(self):
        mask = self.grid.interior_mask(0.45)
        for t in (0.1, 0.5, 1.0):
            K = heat_kernel_matrix(self.grid, t)
            mass = K @ self.grid.mu_weights
            self.assertLess(np.max(np.abs(mass[mask] - 1.0)), 1e-6)

    def test_chapman_kolmogorov(self):
        mask = self.grid.interior_mask(0.45)
        K1 = heat_kernel_matrix(self.grid, 0.3)
        K2 = heat_kernel_matrix(self.grid, 0.5)
        K3 = heat_kernel_matrix(self.grid, 0.8)
        comp = (K1 * self.grid.mu_weights[None, :]) @ K2
        gap = np.abs(comp - K3)[np.ix_(mask, mask)] / np.max(K3)
        self.assertLess(np.max(gap), 1e-6)


class TestPerAxisTable(unittest.TestCase):
    GRIDS = (((0.5, 1.0), 6.0, 32), ((0.0, 0.5), 6.0, 24), ((0.5,), 14.0, 256))

    def test_matches_outer_product_formula(self):
        for kappas, R, n in self.GRIDS:
            grid = build_grid(RootSystem.z2_product(list(kappas)), R, n)
            for t in (0.1, 0.7):
                oracle = np.full((len(grid), len(grid)), kernel_prefactor(grid.rs, t))
                for j, kap in enumerate(kappas):
                    xs = grid.nodes[:, j]
                    oracle = oracle * axis_factor(xs[:, None], xs[None, :], t, kap)
                self.assertTrue(np.array_equal(heat_kernel_matrix(grid, t), oracle))

    def test_matches_kron_chain_and_rows_match_table(self):
        # bit for bit: the np.kron chain of the axis tables, and any rows
        for kappas, R, n in self.GRIDS:
            grid = build_grid(RootSystem.z2_product(list(kappas)), R, n)
            picks = (np.arange(0, len(grid), 7), slice(5, 37), np.array([len(grid) - 1, 0, 3]))
            for t in (0.1, 0.7):
                c, axes = heat_axis_tables(grid, t)
                K = heat_kernel_matrix(grid, t)
                self.assertTrue(np.array_equal(K, reduce(np.kron, axes, np.full((1, 1), c))))
                self.assertTrue(K.flags.c_contiguous)
                for rows in picks:
                    self.assertTrue(np.array_equal(heat_kernel_matrix(grid, t, rows), K[rows]))


class TestSemigroupAction(unittest.TestCase):
    def test_spectral_matches_kernel(self):
        rs = RootSystem.z2_product([0.5])
        grid = build_grid(rs, 12.0, 192)
        sm = build_spectral_matrix(grid)
        xs = grid.nodes[:, 0]
        f = SampledFunction(grid, np.exp(-(xs**2) / 2.0) * (1.0 + 0.4 * xs))
        spec = heat_apply(sm, 0.5, f)
        K = heat_kernel_matrix(grid, 0.5)
        direct = (K * grid.mu_weights[None, :]) @ f.values
        mask = grid.interior_mask(0.5)
        np.testing.assert_allclose(spec.values[mask], direct[mask], atol=1e-7)

    def test_zero_time_identity(self):
        rs = RootSystem.z2_product([0.5])
        grid = build_grid(rs, 8.0, 48)
        sm = build_spectral_matrix(grid)
        f = SampledFunction(grid, np.exp(-grid.nodes[:, 0] ** 2))
        self.assertIs(heat_apply(sm, 0.0, f), f)
        with self.assertRaises(InputError):
            heat_apply(sm, -0.1, f)


class TestGaussianBounds(unittest.TestCase):
    def test_fits_finite_and_stable(self):
        rs = RootSystem.z2_product([0.5])
        rep = gaussian_bound_report(rs, (0.25, 1.0), n_samples=40, seed=5)
        self.assertGreater(rep["min_kernel_value"], 0.0)
        for form, fit in rep["fits"].items():
            self.assertTrue(np.isfinite(fit["C"]), form)
            self.assertGreater(fit["c"], 0.0, form)
        rep2 = gaussian_bound_report(rs, (0.25, 1.0), n_samples=80, seed=5)
        for form in rep["fits"]:
            c1 = rep["fits"][form]["c"]
            c2 = rep2["fits"][form]["c"]
            self.assertLess(abs(c2 - c1) / c1, 0.10, form)


if __name__ == "__main__":
    unittest.main()
