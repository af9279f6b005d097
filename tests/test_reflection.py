"""Group generation, weights, orbit geometry, ball volumes."""

import math
import unittest

import numpy as np

from dunklkit.errors import InputError
from dunklkit.reflection import (
    RootSystem,
    ball_comparison_quantity,
    ball_volume,
    ball_volume_quadrature,
    calibrate_ball_constants,
    canonical_rep,
    gamma_k,
    generate_group,
    orbit_distance,
    orbit_distance_bruteforce,
    unit_ball_cover,
    weight,
)


class TestGroupGeneration(unittest.TestCase):
    def test_sign_product_orders(self):
        for d in (1, 2, 3):
            rs = RootSystem.z2_product([0.5] * d)
            self.assertEqual(len(generate_group(rs)), 2**d)

    def test_dihedral_order(self):
        rs = RootSystem.dihedral(3, 0.5)
        self.assertEqual(len(generate_group(rs)), 6)

    def test_gamma_sum(self):
        rs = RootSystem.z2_product([0.5, 1.5])
        self.assertAlmostEqual(gamma_k(rs), 2.0)

    def test_negative_multiplicity_rejected(self):
        with self.assertRaises(InputError):
            RootSystem.z2_product([-0.2])


class TestWeight(unittest.TestCase):
    def test_rank_one_value(self):
        # root length sqrt(2): density (sqrt(2)|x|)^(2 kappa)
        rs = RootSystem.z2_product([0.5])
        self.assertAlmostEqual(weight(rs, np.array([3.0])), math.sqrt(2.0) * 3.0)

    def test_product_weight(self):
        rs = RootSystem.z2_product([0.5, 1.0])
        x = np.array([2.0, 3.0])
        expect = (math.sqrt(2.0) * 2.0) ** 1 * (math.sqrt(2.0) * 3.0) ** 2
        self.assertAlmostEqual(float(weight(rs, x)), expect)

    def test_invariance_under_signs(self):
        rs = RootSystem.z2_product([0.7, 0.3])
        x = np.array([1.3, -0.4])
        np.testing.assert_allclose(weight(rs, x), weight(rs, -x))


class TestOrbitGeometry(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rs = RootSystem.z2_product([0.5, 1.0])
        cls.g = generate_group(cls.rs)

    def test_canonical_rep_idempotent(self):
        x = np.array([-1.2, 0.7])
        rep = canonical_rep(self.g, x)
        np.testing.assert_allclose(rep, np.abs(x))
        np.testing.assert_allclose(canonical_rep(self.g, rep), rep)

    def test_orbit_distance_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            self.assertAlmostEqual(
                orbit_distance(self.g, x, y),
                orbit_distance_bruteforce(self.g, x, y),
                places=10,
            )

    def test_orbit_distance_sign_chambers(self):
        # on a sign group the orbit distance is |x+ - y+|, x+ the coordinate absolutes
        self.assertAlmostEqual(orbit_distance(self.g, [1.0, -2.0], [-1.0, 2.0]), 0.0)
        self.assertAlmostEqual(orbit_distance(self.g, [3.0, 0.0], [0.0, 4.0]), 5.0)

    def test_unit_ball_cover_covers(self):
        x = np.array([0.8, -0.3])
        r = 1.4
        centers = unit_ball_cover(x, r)
        rng = np.random.default_rng(1)
        pts = x + rng.uniform(-r, r, size=(150, 2))
        pts = pts[np.linalg.norm(pts - x, axis=1) <= r]
        d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
        self.assertTrue(np.all(d.min(axis=1) <= 1.0 + 1e-9))


class TestBallVolume(unittest.TestCase):
    def test_rank_one_exact(self):
        # kappa = 1: mu(B(0, 1)) = int_{-1}^{1} 2 y^2 dy = 4/3
        rs = RootSystem.z2_product([1.0])
        v = ball_volume_quadrature(rs, np.array([0.0]), 1.0)
        self.assertAlmostEqual(v, 4.0 / 3.0, places=12)

    def test_bracket_contains_quadrature(self):
        rs = RootSystem.z2_product([0.6])
        cal = calibrate_ball_constants(rs)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-4, 4, size=1)
            r = float(rng.uniform(0.2, 2.0))
            est = ball_volume(rs, x, r, cal)
            v = ball_volume_quadrature(rs, x, r)
            self.assertLessEqual(est.lower, v * (1 + 1e-9))
            self.assertGreaterEqual(est.upper, v * (1 - 1e-9))

    def test_doubling(self):
        rs = RootSystem.z2_product([0.5, 0.5])
        bound = 2.0 ** (2 + 2 * gamma_k(rs))
        rng = np.random.default_rng(4)
        for _ in range(15):
            x = rng.uniform(-3, 3, size=2)
            r = float(rng.uniform(0.1, 1.5))
            v1 = ball_comparison_quantity(rs, x, r)
            v2 = ball_comparison_quantity(rs, x, 2 * r)
            self.assertLessEqual(v2, bound * v1 * (1 + 1e-9))


if __name__ == "__main__":
    unittest.main()
