"""Smallness moduli, heat characterization, verdicts, smoothing norms."""

import unittest

import numpy as np
from scipy.linalg import svdvals

from dunklkit.errors import CapabilityError, InputError, NumericalError
from dunklkit.grids import build_grid
from dunklkit.kato import (
    CLASSICAL,
    LAGUERRE,
    ORBIT,
    _time_rule,
    classify,
    growth_bound_check,
    heat_modulus,
    kato_equivalence_check,
    kato_modulus,
    resolvent_decay,
    semigroup_abs_potential,
    smoothing_norms,
    smoothing_norms_of_kernel,
)
from dunklkit.reflection import RootSystem
from dunklkit.schrodinger import (
    potential_function,
    potential_preset,
    splitting_kernel,
    splitting_steps,
)

ONE = potential_function("constant", c=1.0)


class TestModulus(unittest.TestCase):
    def test_constant_classical(self):
        # d = 1 Green factor is 1: the window integral is 2t
        for t in (0.5, 1.0, 2.0):
            m = kato_modulus(ONE, t, CLASSICAL)
            self.assertAlmostEqual(m.value, 2.0 * t, places=9)
            self.assertFalse(m.divergent)

    def test_orbit_doubles_off_origin(self):
        t = 0.5
        at0 = kato_modulus(ONE, t, ORBIT, probes=(0.0,))
        off = kato_modulus(ONE, t, ORBIT, probes=(2.0,))
        self.assertAlmostEqual(at0.value, 2.0 * t, places=9)
        self.assertAlmostEqual(off.value, 4.0 * t, places=9)

    def test_trivial_group_collapses_orbit(self):
        t = 0.5
        off = kato_modulus(ONE, t, ORBIT, probes=(2.0,), sign_group=False)
        self.assertAlmostEqual(off.value, 2.0 * t, places=9)

    def test_supercritical_diverges(self):
        V = potential_function("inverse_power", beta=1.5)
        m = kato_modulus(V, 1.0, CLASSICAL)
        self.assertTrue(m.divergent)
        self.assertEqual(m.value, np.inf)

    def test_input_validation(self):
        with self.assertRaises(InputError):
            kato_modulus(ONE, 0.0)
        with self.assertRaises(InputError):
            kato_modulus(ONE, 1.0, form="bogus")

    def test_equivalence_sandwich(self):
        soft = potential_function("soft_coulomb", a=1.0)
        rep = kato_equivalence_check(soft, (0.5, 1.0))
        for row in rep["rows"]:
            self.assertGreaterEqual(row["lower_slack"], -1e-10)
            self.assertGreaterEqual(row["upper_slack"], -1e-10)
            self.assertFalse(row["divergent"])

    def test_equivalence_divergent_upper_leg(self):
        # the upper leg of a non-integrable |V| is inf, not the partial sum
        # at which the quadrature stopped
        V = potential_function("inverse_power", beta=1.5)
        (row,) = kato_equivalence_check(V, (0.25,), probes=(0.0,))["rows"]
        self.assertTrue(row["divergent"])
        self.assertEqual(row["upper"], np.inf)
        self.assertEqual(row["classical"], np.inf)
        self.assertEqual(row["orbit"], np.inf)


class TestHeatModulus(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rs = RootSystem.z2_product([0.5])

    def test_constant_is_exact(self):
        # mass one in every window: the time integral of |V| = 1 is t itself
        for t in (0.3, 1.0):
            hm = heat_modulus(self.rs, ONE, t)
            self.assertAlmostEqual(hm, t, places=8)

    def test_monotone_in_t(self):
        soft = potential_function("soft_coulomb", a=1.0)
        h1 = heat_modulus(self.rs, soft, 0.1)
        h2 = heat_modulus(self.rs, soft, 1.0)
        self.assertLess(h1, h2)

    def test_resolvent_constant(self):
        rep = resolvent_decay(self.rs, ONE, (1.0, 4.0))
        for row in rep["rows"]:
            self.assertAlmostEqual(row["norm"], 1.0 / row["a"], places=6)
            self.assertGreaterEqual(row["bound"] * 1.001, row["norm"])
        with self.assertRaises(InputError):
            resolvent_decay(self.rs, ONE, (-1.0,))

    def test_unconverged_flow_raises(self):
        # y^-1.5 near 0 is not integrable: the quadrature stops at its break
        rs = RootSystem.z2_product([0.0])
        V = potential_function("inverse_power", beta=1.5)
        with self.assertRaises(NumericalError):
            semigroup_abs_potential(rs, V, 1.0, 0.0)

    def test_nonpositive_time_rejected(self):
        with self.assertRaises(InputError):
            heat_modulus(self.rs, ONE, 0.0)
        with self.assertRaises(InputError):
            semigroup_abs_potential(self.rs, ONE, [0.1, 0.0], 0.5)


def _gauss(y):
    return np.exp(-np.asarray(y, dtype=float) ** 2)


def _gauss_flow(kap, s, x):
    """(e^{-sA} e^{-y^2})(x) = (1 + 4s)^{-(kappa + 1/2)} e^{-x^2/(1 + 4s)}."""
    s = np.asarray(s, dtype=float)
    return (1.0 + 4.0 * s) ** (-(kap + 0.5)) * np.exp(-x * x / (1.0 + 4.0 * s))


class TestGaussianOracle(unittest.TestCase):
    """The heat flow of e^{-y^2} in closed form, from s = 1e-10 (a kernel
    1e-4 wide) to s = 100."""

    KAPPAS = (0.0, 0.5, 1.5)
    XS = (0.0, 0.5, 2.0)

    def test_single_time(self):
        for kap in self.KAPPAS:
            rs = RootSystem.z2_product([kap])
            for x in self.XS:
                for s in 10.0 ** np.arange(-10, 3):
                    ref = _gauss_flow(kap, s, x)
                    got = semigroup_abs_potential(rs, _gauss, s, x)
                    self.assertLess(abs(got - ref), 1e-10 * ref, (kap, x, s))

    def test_heat_modulus_is_the_time_rule(self):
        for kap in self.KAPPAS:
            rs = RootSystem.z2_product([kap])
            for x in self.XS:
                for t in (1.0, 0.3, 0.03):
                    s, w = _time_rule(t)
                    ref = float(w @ _gauss_flow(kap, s, x))
                    got = heat_modulus(rs, _gauss, t, probes=(x,))
                    self.assertLess(abs(got - ref), 1e-12 * ref, (kap, x, t))

    def test_resolvent_is_the_laguerre_rule(self):
        sv, sw = LAGUERRE
        for kap in self.KAPPAS:
            rs = RootSystem.z2_product([kap])
            for x in self.XS:
                for a in (1.0, 4.0, 64.0):
                    ref = float(sw @ _gauss_flow(kap, sv / a, x)) / a
                    got = resolvent_decay(rs, _gauss, (a,), probes=(x,))
                    norm = got["rows"][0]["norm"]
                    self.assertLess(abs(norm - ref), 1e-12 * ref, (kap, x, a))


class TestNamedBreaks(unittest.TestCase):
    def test_breaks_change_cost_not_value(self):
        # the same function without breaks: the quadrature finds the jump
        # at the cutoff on its own, at many more evaluations
        rs = RootSystem.z2_product([0.5])
        V = potential_function("inverse_power", beta=0.75)

        def plain(y):
            return V(y)

        for x in (0.0, 0.5, 2.0):
            for t in (1.0, 0.03):
                got = heat_modulus(rs, V, t, probes=(x,))
                ref = heat_modulus(rs, plain, t, probes=(x,))
                self.assertLess(abs(got - ref), max(1e-10 * ref, 1e-12), (x, t))


class TestGrowthBound(unittest.TestCase):
    def test_constant_trivial_group(self):
        rep = growth_bound_check(ONE, (0.5, 1.0, 2.0, 4.0), sign_group=False)
        self.assertLess(rep["C"], 2.0)
        self.assertTrue(rep["stable"])

    def test_orbit_form_larger(self):
        flat = growth_bound_check(ONE, (1.0, 2.0), probes=(3.0,), sign_group=False)
        orbit = growth_bound_check(ONE, (1.0, 2.0), probes=(3.0,), sign_group=True)
        self.assertGreater(orbit["C"], flat["C"] * 1.5)


class TestClassify(unittest.TestCase):
    def test_verdicts(self):
        rs = RootSystem.z2_product([0.5])
        rep = classify(rs, ONE, (0.0, 1.0))
        self.assertEqual(rep.verdict, "Kato")
        self.assertFalse(rep.diagnostics["divergent"])
        bad = classify(rs, potential_function("inverse_power", beta=1.5), (0.0, 1.0))
        self.assertEqual(bad.verdict, "NotKato")
        self.assertTrue(bad.diagnostics["divergent"])

    def test_rank_two_refused(self):
        with self.assertRaises(CapabilityError):
            classify(RootSystem.z2_product([0.5, 1.0]), ONE)


class TestSmoothing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rs = RootSystem.z2_product([0.5])
        cls.grid = build_grid(rs, 10.0, 96)
        cls.pot = potential_preset(cls.grid, "soft_coulomb", a=1.0)

    def test_corner_norms(self):
        rep = smoothing_norms(self.grid, self.pot, 0.5, [(1, 2), (2, 2), (2, "inf")])
        for v in rep.corner_norms.values():
            self.assertTrue(np.isfinite(v))
            self.assertGreater(v, 0.0)
        self.assertLessEqual(rep.corner_norms[("inf", "inf")], 1.0 + 1e-6)
        self.assertGreaterEqual(rep.interpolated[(2, 2)], rep.l2_direct * (1 - 1e-9))

    def test_invalid_inputs(self):
        with self.assertRaises(InputError):
            smoothing_norms(self.grid, self.pot, 0.0, [])
        with self.assertRaises(InputError):
            smoothing_norms(self.grid, self.pot, 0.5, [(2, 1)])

    def test_l2_top_eigenvalue_matches_svd(self):
        # the kernel grids of the smoothing suite in rank one and rank two, and
        # rank-one grids of 2, 4 and 12 nodes, near Lanczos's k = 1 < n limit
        grids = (
            build_grid(RootSystem.z2_product([0.5]), 14.0, 256),
            build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32),
            build_grid(RootSystem.z2_product([0.5]), 2.0, 2),
            build_grid(RootSystem.z2_product([0.5]), 3.0, 4),
            build_grid(RootSystem.z2_product([0.5]), 4.0, 12),
        )
        presets = (("soft_coulomb", {"a": 1.0}), ("inverse_power", {"beta": 0.5, "cutoff": 1.0}))
        for grid in grids:
            dh = np.sqrt(grid.mu_weights)
            for name, params in presets:
                pot = potential_preset(grid, name, **params)
                for t in (0.1, 1.0):
                    W = splitting_kernel(grid, pot, t, splitting_steps(grid, t))
                    got = smoothing_norms_of_kernel(grid, W, []).l2_direct
                    ref = svdvals(dh[:, None] * W * dh[None, :])[0]
                    self.assertLessEqual(abs(got - ref), 1e-13 * ref)

    def test_kernel_must_be_nonnegative_and_symmetric(self):
        grid = self.grid
        W = splitting_kernel(grid, self.pot, 0.5, 1)
        smoothing_norms_of_kernel(grid, W, [])
        neg = W.copy()
        neg[3, 5] = neg[5, 3] = -1e-300
        skew = W.copy()
        skew[3, 5] += 1e-9 * W.max()
        for bad in (neg, skew):
            with self.assertRaises(InputError):
                smoothing_norms_of_kernel(grid, bad, [])


if __name__ == "__main__":
    unittest.main()
