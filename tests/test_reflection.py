"""Group generation, weights, orbit geometry, ball volumes."""

import math
import unittest

import mpmath as mp
import numpy as np
from hypothesis import given, settings, strategies as st

from dunklkit.errors import CapabilityError, InputError
from dunklkit.reflection import (
    RootSystem,
    ball_bracket_constants,
    ball_comparison_quantity,
    ball_volumes,
    cube_volumes,
    gamma_k,
    orbit_distance,
    orbit_distance_bruteforce,
    sign_flips,
    unit_ball_cover,
    weight,
)


class TestGroupGeneration(unittest.TestCase):
    def test_sign_product_orders(self):
        # fewest flipped axes first, then combinations order; the entries are
        # exactly +-1
        expect = {
            1: [[1], [-1]],
            2: [[1, 1], [-1, 1], [1, -1], [-1, -1]],
            3: [[1, 1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, -1],
                [-1, -1, 1], [-1, 1, -1], [1, -1, -1], [-1, -1, -1]],
        }
        for d, signs in expect.items():
            rows = sign_flips(d)
            self.assertEqual(rows.dtype, np.float64)
            self.assertTrue(np.array_equal(rows, np.array(signs, dtype=float)), (d, rows))

    def test_roots_must_be_sqrt2_axes(self):
        # the roots are sqrt(2) e_j by construction: a system holds only one
        # multiplicity per axis
        for d in range(1, 6):
            rs = RootSystem.z2_product(np.linspace(0.0, 1.0, d))
            self.assertEqual(rs.dimension, d)
            np.testing.assert_array_equal(rs.multiplicities, np.linspace(0.0, 1.0, d))
            self.assertFalse(rs.multiplicities.flags.writeable)

    def test_gamma_sum(self):
        rs = RootSystem.z2_product([0.5, 1.5])
        self.assertAlmostEqual(gamma_k(rs), 2.0)

    def test_negative_multiplicity_rejected(self):
        for bad in ([-0.2], [0.5, float("nan")], [[0.5, 1.0]], []):
            with self.subTest(bad=bad), self.assertRaises(InputError):
                RootSystem.z2_product(bad)
        with self.assertRaises(InputError):
            RootSystem(np.array([float("nan")]))


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
    def test_orbit_distance_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            self.assertEqual(orbit_distance(x, y), orbit_distance_bruteforce(x, y))

    def test_orbit_distance_sign_chambers(self):
        # on a sign group the orbit distance is |x+ - y+|, x+ the coordinate absolutes
        self.assertAlmostEqual(orbit_distance([1.0, -2.0], [-1.0, 2.0]), 0.0)
        self.assertAlmostEqual(orbit_distance([3.0, 0.0], [0.0, 4.0]), 5.0)

    def test_unit_ball_cover_covers(self):
        x = np.array([0.8, -0.3])
        r = 1.4
        centers = unit_ball_cover(x, r)
        rng = np.random.default_rng(1)
        pts = x + rng.uniform(-r, r, size=(150, 2))
        pts = pts[np.linalg.norm(pts - x, axis=1) <= r]
        d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
        self.assertTrue(np.all(d.min(axis=1) <= 1.0 + 1e-9))


def _mp_ball(kappas, x, r):
    """mu_k(B(x, r)) in rank two as one mpmath quadrature over y_1 of the
    closed-form axis-2 mass of the chord, split at its breaks."""
    with mp.workdps(20):
        k1, k2 = (mp.mpf(k) for k in kappas)
        x1, x2, r = mp.mpf(x[0]), mp.mpf(x[1]), mp.mpf(r)

        def anti(y):
            return mp.sign(y) * 2**k2 / (2 * k2 + 1) * abs(y) ** (2 * k2 + 1)

        def chord(y1):
            s = mp.sqrt(max(r * r - (y1 - x1) ** 2, 0))
            return 2**k1 * abs(y1) ** (2 * k1) * (anti(x2 + s) - anti(x2 - s))

        pts = {x1 - r, x1 + r}
        if abs(x1) < r:
            pts.add(mp.mpf(0))
        if abs(x2) < r:
            h = mp.sqrt(r * r - x2 * x2)
            pts |= {x1 - h, x1 + h}
        return float(mp.quad(chord, sorted(pts)))


class TestBallVolume(unittest.TestCase):
    def test_rank_one_exact(self):
        # kappa = 1: mu(B(0, 1)) = int_{-1}^{1} 2 y^2 dy = 4/3
        rs = RootSystem.z2_product([1.0])
        v = ball_volumes(rs, np.zeros((1, 1)), 1.0)[0]
        self.assertAlmostEqual(v, 4.0 / 3.0, places=12)

    @settings(max_examples=60, deadline=None)
    @given(
        kappas=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
        r=st.floats(0.01, 10.0),
        data=st.data(),
    )
    def test_closed_form_bracket_holds(self, kappas, r, data):
        # c q <= mu <= C q for centres up to 1e3 radii out on every axis.  The
        # pad: mu = C q exactly at kappa = 0 in rank one, so rounding alone
        # decides there (1e-12), and far out the rank-one antiderivative
        # difference loses about |x| / r ulps to cancellation (1e-15 |x| / r)
        rs = RootSystem.z2_product(kappas)
        u = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(kappas), max_size=len(kappas)))
        x = r * np.array(u)
        c, C = ball_bracket_constants(rs)
        q = ball_comparison_quantity(rs, x, r)
        v = ball_volumes(rs, x[None], r)[0]
        pad = 1e-12 + 1e-15 * np.linalg.norm(u)
        self.assertLessEqual(c * q, v * (1 + pad))
        self.assertLessEqual(v, C * q * (1 + pad))

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


class TestExactBallVolumes(unittest.TestCase):
    """ball_volumes against independent oracles."""

    @staticmethod
    def _balls(d, m, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3, 3, size=(m, d))
        R = rng.uniform(0.05, 3.0, size=m)
        # the origin, and centres at distance r from coordinate hyperplanes,
        # where a break meets the end of a piece
        X[0], X[1, 0], X[2] = 0.0, R[1], R[2]
        return X, R

    def test_polynomial_weights_closed_forms(self):
        X, R = self._balls(2, 40, 1)
        x1, x2 = X[:, 0] ** 2, X[:, 1] ** 2
        cases = {
            (0.0, 0.0): np.pi * R**2,
            (1.0, 0.0): 2 * np.pi * (R**4 / 4 + x1 * R**2),
            (1.0, 1.0): 4 * np.pi * (R**6 / 24 + (x1 + x2) * R**4 / 4 + x1 * x2 * R**2),
        }
        for kappas, exact in cases.items():
            v = ball_volumes(RootSystem.z2_product(kappas), X, R)
            np.testing.assert_allclose(v, exact, rtol=1e-12, atol=0, err_msg=str(kappas))

    def test_matches_mpmath(self):
        X, R = self._balls(2, 6, 2)
        for kappas in ((0.5, 1.0), (0.3, 0.7)):
            v = ball_volumes(RootSystem.z2_product(kappas), X, R)
            ref = [_mp_ball(kappas, x, r) for x, r in zip(X, R)]
            np.testing.assert_allclose(v, ref, rtol=1e-12, atol=0, err_msg=str(kappas))

    def test_scale_covariance(self):
        # mu(lam x, lam r) = lam^(d + 2 gamma) mu(x, r)
        for kappas in ((0.5, 1.0), (0.3, 0.7, 1.2)):
            rs = RootSystem.z2_product(kappas)
            X, R = self._balls(len(kappas), 8, 3)
            v = ball_volumes(rs, X, R)
            for lam in (0.1, 3.0):
                scaled = ball_volumes(rs, lam * X, lam * R)
                power = len(kappas) + 2 * gamma_k(rs)
                np.testing.assert_allclose(scaled, lam**power * v, rtol=1e-12, atol=0)

    def test_rank_three_matches_monte_carlo(self):
        rs = RootSystem.z2_product([0.5, 1.0, 0.3])
        X, R = self._balls(3, 3, 4)
        v = ball_volumes(rs, X, R)
        rng = np.random.default_rng(5)
        n = 200_000
        for x, r, vol in zip(X, R, v):
            u = rng.standard_normal((n, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            pts = x + (r * rng.random(n) ** (1 / 3))[:, None] * u
            vals = 4 / 3 * np.pi * r**3 * weight(rs, pts)
            se = vals.std() / math.sqrt(n)
            self.assertLess(abs(vol - vals.mean()), 4 * se)

    def test_cube_bracket(self):
        # Q(x, r / sqrt(d)) lies inside B(x, r), which lies inside Q(x, r)
        for kappas in ((0.6,), (0.5, 1.0), (0.0, 0.4), (0.5, 1.0, 0.3)):
            rs = RootSystem.z2_product(kappas)
            d = len(kappas)
            X, R = self._balls(d, 30 if d < 3 else 8, 6)
            v = ball_volumes(rs, X, R)
            self.assertTrue(np.all(cube_volumes(rs, X, R / math.sqrt(d)) <= v * (1 + 1e-12)))
            self.assertTrue(np.all(v <= cube_volumes(rs, X, R) * (1 + 1e-12)))

    def test_rank_one_is_the_interval(self):
        rs = RootSystem.z2_product([0.7])
        X, R = self._balls(1, 20, 7)
        self.assertTrue(np.array_equal(ball_volumes(rs, X, R), cube_volumes(rs, X, R)))

    def test_bracket_constants_sharp_and_far_out(self):
        # the interval at kappa = 0 attains C, up to the rounding of x + r - (x - r)
        rs = RootSystem.z2_product([0.0])
        X, R = self._balls(1, 20, 8)
        c, C = ball_bracket_constants(rs)
        self.assertEqual((c, C), (1.0, 2.0))
        v, q = ball_volumes(rs, X, R), ball_comparison_quantity(rs, X, R)
        np.testing.assert_allclose(v, C * q, rtol=1e-12, atol=0)
        # far from both axes mu / q tends to pi at kappa = (3, 0.25), above
        # what a scan of |x| / r <= 60 sees (3.06 with a 5 % pad)
        rs = RootSystem.z2_product([3.0, 0.25])
        X, R = np.array([[1e4, 1e4], [60.0, 60.0]]), np.ones(2)
        ratio = ball_volumes(rs, X, R) / ball_comparison_quantity(rs, X, R)
        self.assertGreater(ratio[0], 3.1)
        c, C = ball_bracket_constants(rs)
        self.assertTrue(np.all((c <= ratio) & (ratio <= C)))

    def test_refusals(self):
        with self.assertRaises(CapabilityError):
            ball_volumes(RootSystem.z2_product([0.5] * 4), np.zeros((1, 4)), 1.0)
        with self.assertRaises(InputError):
            ball_volumes(RootSystem.z2_product([0.5]), np.zeros((2, 1)), [1.0, 0.0])


if __name__ == "__main__":
    unittest.main()
