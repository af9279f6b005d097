"""Intertwining measure, deformed exponential kernel, phi envelope."""

import unittest

import mpmath
import numpy as np

from dunklkit.errors import InputError, RangeError
from dunklkit.intertwine import (
    KAPPA_MAX,
    _jacobi_rule,
    averaged_orbit_measure,
    dunkl_kernel,
    e_minus_i,
    kernel_bessel_1d,
    kernel_series_1d,
    njbessel,
    nu_moments_oracle,
    nu_quadrature,
    phi,
    phi_lemma_defect,
    rank_one_measure,
    scaled_e_even,
    scaled_e_real,
    scaled_nibessel,
)
from dunklkit.reflection import RootSystem, sign_flips


def _mp_scaled(v, kap, dps, even_only=False):
    """Bessel form of E(s) e^{-|s|} at s = v in mpmath, at dps digits; with
    even_only, its even term alone."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(abs(v))
        nu = mpmath.mpf(kap) - mpmath.mpf(0.5)
        even = mpmath.gamma(nu + 1) * (2 / a) ** nu * mpmath.besseli(nu, a)
        if even_only:
            return float(even * mpmath.exp(-a))
        odd = mpmath.gamma(nu + 2) * (2 / a) ** (nu + 1) * mpmath.besseli(nu + 1, a)
        return float((even + mpmath.mpf(v) / (2 * nu + 2) * odd) * mpmath.exp(-a))


class TestBesselOracles(unittest.TestCase):
    """The normalized Bessel functions against mpmath at 40 digits, on both
    sides of every range edge and at random points."""

    def test_njbessel(self):
        rng = np.random.default_rng(21)
        for nu in (-0.2, 0.0, 0.5, 1.0, 1.5, 2.0, KAPPA_MAX + 0.5):
            edge = max(25.0, nu * nu)
            z = np.concatenate([[0.0, 1e-9, 1.0, np.nextafter(2.0, 0.0), 2.0, 3.0,
                                 np.nextafter(edge, 0.0), edge, 250.0],
                                rng.uniform(0.0, 250.0, 40), rng.uniform(0.0, 30.0, 20)])
            with mpmath.workdps(40):
                ref = [mpmath.gamma(nu + 1) * (2 / mpmath.mpf(v)) ** nu * mpmath.besselj(nu, v)
                       if v else 1.0 for v in z]
            got = njbessel(nu, z)
            np.testing.assert_allclose(got, np.array(ref, float), rtol=0, atol=5e-15, err_msg=nu)
            self.assertTrue(np.array_equal(njbessel(nu, -z), got))

    def test_scaled_nibessel(self):
        rng = np.random.default_rng(22)
        for nu in (-0.5, -0.2, 0.0, 0.5, 1.0, 1.5, 2.0, KAPPA_MAX - 0.5, KAPPA_MAX + 0.5):
            edge = max(30.0, 2.0 * nu * nu)
            a = np.concatenate([[0.0, 1e-9, 1.0, np.nextafter(edge, 0.0), edge, 1.2e8, 1e12],
                                10.0 ** rng.uniform(-3.0, 12.0, 30), rng.uniform(0.0, 1.2 * edge, 30)])
            with mpmath.workdps(40):
                ref = [mpmath.gamma(nu + 1) * (2 / mpmath.mpf(v)) ** nu * mpmath.besseli(nu, v)
                       * mpmath.exp(-mpmath.mpf(v)) if v else 1.0 for v in a]
            np.testing.assert_allclose(scaled_nibessel(nu, a), np.array(ref, float), rtol=1e-14,
                                       err_msg=nu)

    def test_orders_outside_the_tested_range(self):
        for nu in (-1.0, KAPPA_MAX + 0.51):
            for fn in (njbessel, scaled_nibessel):
                with self.assertRaises(RangeError):
                    fn(nu, np.array([1.0]))


class TestRankOneMeasure(unittest.TestCase):
    def test_probability_and_support(self):
        nodes, wts = rank_one_measure(0.7, 2.0, 48)
        self.assertAlmostEqual(wts.sum(), 1.0, places=12)
        self.assertTrue(np.all(wts > 0))
        self.assertTrue(np.all(np.abs(nodes) <= 2.0 + 1e-12))

    def test_kappa_zero_point_mass(self):
        nodes, wts = rank_one_measure(0.0, 1.5, 32)
        np.testing.assert_allclose(nodes, [1.5])
        np.testing.assert_allclose(wts, [1.0])

    def test_moments_match_oracle(self):
        for kap in (0.3, 0.5, 1.5):
            nodes, wts = rank_one_measure(kap, 1.0, 64)
            oracle = nu_moments_oracle(kap, 8)
            got = np.array([wts @ nodes**n for n in range(9)])
            np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_jacobi_rule_matches_oracle(self):
        # Golub-Welsch against the exact moments n! b_n through degree 40,
        # kappa = 1/2 included (alpha + beta = 0 there); 1.3e-14 off at
        # kappa = 0.05, where the previous Gauss-Jacobi rule was 4.6e-12 off
        for kap in (0.05, 0.3, 0.5, 1.0, 1.5, 4.0, KAPPA_MAX):
            t, w = _jacobi_rule(64, kap)
            got = np.array([w @ t**n for n in range(41)])
            np.testing.assert_allclose(got, nu_moments_oracle(kap, 40), rtol=0, atol=2e-14,
                                       err_msg=kap)
            self.assertTrue(np.all(np.diff(t) > 0) and np.all(w > 0))

    def test_needs_two_nodes(self):
        with self.assertRaises(InputError):
            rank_one_measure(0.5, 1.0, 1)


class TestTensorMeasure(unittest.TestCase):
    def test_mass_and_apply(self):
        rs = RootSystem.z2_product([0.5, 1.0])
        q = nu_quadrature(rs, [1.0, -2.0])
        self.assertAlmostEqual(q.weights.sum(), 1.0, places=12)


class TestKernelOneDim(unittest.TestCase):
    def test_kappa_zero_is_exponential(self):
        s = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(kernel_bessel_1d(s, 0.0), np.exp(s), rtol=1e-12)
        np.testing.assert_allclose(e_minus_i(s, 0.0), np.exp(-1j * s), rtol=1e-12)

    def test_series_matches_bessel(self):
        s = np.linspace(-8, 8, 33)
        for kap in (0.3, 0.5, 1.0, 1.5):
            np.testing.assert_allclose(
                kernel_series_1d(s, kap), kernel_bessel_1d(s, kap), rtol=1e-10
            )

    def test_scaled_form_bounded(self):
        s = np.linspace(-40, 40, 81)
        for kap in (0.0, 0.5, 2.0):
            v = scaled_e_real(s, kap)
            self.assertTrue(np.all(v > 0))
            self.assertTrue(np.all(v <= 1.0 + 1e-12))

    def test_scaled_form_matches_mpmath(self):
        # Bessel form of E(s) e^{-|s|} to 40 digits, near 0 and across the
        # series-Hankel switch; for s < 0 its two terms cancel to e^{-2|s|}, which costs
        # about 0.87 |s| digits, so the working precision grows with |s|
        mags = (1e-9, 9.99e-7, 1e-6, 1.001e-6, 0.37, 3.0, 40.0, 700.0)
        s = np.array([0.0] + [m for a in mags for m in (a, -a)])
        # kappa 0.5, 1 and 1.5: the orders 0 to 2 of the Bessel terms
        for kap in (0.0, 0.5, 1.0, 1.5):
            ref = [1.0] + [_mp_scaled(v, kap, 40 + int(abs(v))) for v in s[1:]]
            # the only zero reference is e^{-1400} at kappa = 0, s = -700
            np.testing.assert_allclose(scaled_e_real(s, kap), ref, rtol=1e-12, atol=1e-300)

    def test_even_term_matches_mpmath(self):
        # near 0, across the series-Hankel switch, and even in its argument
        mags = (1e-8, 1e-7, 9.99e-7, 1e-6, 1.001e-6, 1e-3, 0.37, 3.0, 40.0, 1e3)
        a = np.array([m for v in mags for m in (v, -v)])
        for kap in (0.0, 0.3, 0.5, 1.0, 1.5):
            ref = [_mp_scaled(v, kap, 40, even_only=True) for v in a]
            np.testing.assert_allclose(scaled_e_even(a, kap), ref, rtol=1e-12)

    def test_scaled_form_at_large_arguments(self):
        # the Hankel range; s < 0 cancels to O(1/s), out of reach of double
        # precision here, so it is only required finite
        s = np.array([1e9, 3e9, 1e12])
        for kap in (0.5, 1.0, 1.5):
            ref = [_mp_scaled(v, kap, 40) for v in s]
            np.testing.assert_allclose(scaled_e_real(s, kap), ref, rtol=1e-12)
            self.assertTrue(np.all(np.isfinite(scaled_e_real(-s, kap))))

    def test_imaginary_direction_contractive(self):
        s = np.linspace(-10, 10, 41)
        for kap in (0.5, 1.5):
            self.assertTrue(np.all(np.abs(e_minus_i(s, kap)) <= 1.0 + 1e-12))


class TestKernel(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rs = RootSystem.z2_product([0.5, 1.5])

    def test_normalization_at_zero(self):
        self.assertEqual(dunkl_kernel(self.rs, [0.0, 0.0], [1.3, -0.7]), 1.0)

    def test_symmetry(self):
        x, y = [0.8, -1.1], [1.4, 0.3]
        self.assertAlmostEqual(
            dunkl_kernel(self.rs, x, y), dunkl_kernel(self.rs, y, x), places=12
        )

    def test_methods_agree(self):
        # the Bessel form against per-axis products of the power series and
        # of the measure quadrature
        x, y = [1.2, 0.5], [-0.6, 2.0]
        ref = dunkl_kernel(self.rs, x, y)
        series, quad = 1.0, 1.0
        for xj, yj, kap in zip(x, y, self.rs.multiplicities):
            series *= float(kernel_series_1d(np.array([xj * yj]), kap)[0])
            nodes, wts = rank_one_measure(kap, xj, 64)
            quad *= float(wts @ np.exp(nodes * yj))
        self.assertAlmostEqual(series, ref, places=9)
        self.assertAlmostEqual(quad, ref, places=9)

    def test_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            self.assertGreater(dunkl_kernel(self.rs, x, y), 0.0)

    def test_imaginary_argument(self):
        rs0 = RootSystem.z2_product([0.0, 0.0])
        x = np.array([0.7, -1.2])
        v = np.array([0.4, 2.0])
        got = dunkl_kernel(rs0, x, 1j * v)
        np.testing.assert_allclose(got, np.exp(1j * x @ v), rtol=1e-12)
        z = dunkl_kernel(self.rs, x, 1j * v)
        self.assertLessEqual(abs(z), 1.0 + 1e-12)

    def test_batched_matches_point_loop(self):
        # points of shape (..., d) against one call per pair; rank one is
        # the same arithmetic
        rng = np.random.default_rng(11)
        for kappas in ([0.5], [0.0], [0.5, 1.5], [0.5, 0.0, 1.0]):
            rs = RootSystem.z2_product(kappas)
            x = rng.uniform(-2, 2, size=len(kappas))
            ys = rng.uniform(-3, 3, size=(4, 5, len(kappas)))
            for y in (ys, 1j * ys):
                got = dunkl_kernel(rs, x, y)
                loop = np.array([[dunkl_kernel(rs, x, yy) for yy in row] for row in y])
                self.assertEqual(got.shape, (4, 5))
                self.assertIsInstance(dunkl_kernel(rs, x, y[0, 0]), (float, complex))
                if len(kappas) == 1:
                    self.assertTrue(np.array_equal(got, loop))
                else:
                    np.testing.assert_allclose(got, loop, rtol=1e-15, atol=1e-15)
            xs = rng.uniform(-2, 2, size=(6, len(kappas)))
            pairs = dunkl_kernel(rs, xs, ys[0, :1])
            np.testing.assert_allclose(
                pairs, [dunkl_kernel(rs, xx, ys[0, 0]) for xx in xs], rtol=1e-15, atol=0
            )


class TestPhi(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rs = RootSystem.z2_product([0.8])

    def test_base_value(self):
        # x = y = 0: integrand is e^{sqrt(1)} identically
        val = phi(self.rs, [0.0], [0.0])
        self.assertAlmostEqual(val, np.e, places=12)

    def test_comparison_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            x, y, y0 = rng.uniform(-2.5, 2.5, size=3)
            d = phi_lemma_defect(self.rs, [x], [y], [y0])
            self.assertGreaterEqual(d, -1e-10)

    def test_rank_two_sign_invariance(self):
        # the averaged measure is the same for every point of the orbit of y,
        # and its nodes are symmetric under the sign flips, so flipping x or y
        # leaves phi unchanged
        rs = RootSystem.z2_product([0.5, 1.0])
        rng = np.random.default_rng(3)
        for _ in range(4):
            x, y = rng.uniform(-2.0, 2.0, size=(2, 2))
            ref = phi(rs, x, y)
            for s in sign_flips(2):
                np.testing.assert_allclose(phi(rs, s * x, y), ref, rtol=1e-13, atol=0)
                np.testing.assert_allclose(phi(rs, x, s * y), ref, rtol=1e-13, atol=0)

    def test_averaged_measure_lists_the_orbit_in_sign_flips_order(self):
        # the order of the concatenated orbit rules fixes the summation order
        # of phi, so it is pinned bit for bit
        for kappas, y in (([0.8], [1.3]), ([0.5, 1.0], [0.7, -1.1])):
            rs, y = RootSystem.z2_product(kappas), np.array(y)
            q = averaged_orbit_measure(rs, y)
            parts = [nu_quadrature(rs, s * y) for s in sign_flips(len(kappas))]
            np.testing.assert_array_equal(q.nodes, np.concatenate([p.nodes for p in parts]))
            wts = np.concatenate([p.weights / len(parts) for p in parts])
            np.testing.assert_array_equal(q.weights, wts)
            np.testing.assert_array_equal(q.base_point, np.abs(y))


if __name__ == "__main__":
    unittest.main()
