"""Smallness moduli, heat characterization, verdicts, smoothing norms."""

import dataclasses
import math
import unittest
from unittest import mock

import mpmath as mp
import numpy as np
from scipy.linalg import svdvals

from dunklkit import kato, schrodinger
from dunklkit.errors import CapabilityError, InputError, NumericalError
from dunklkit.grids import build_grid
from dunklkit.kato import (
    CLASSICAL,
    LAGUERRE,
    ORBIT,
    QUAD_TOL,
    _max_asymmetry,
    _time_rule,
    _top_eigenvalue,
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
    _quadrants,
    potential_function,
    potential_preset,
    splitting_kernel,
    splitting_steps,
)

ONE = potential_function("constant", c=1.0)


def _unfold(grid, W, axes):
    """The whole N x N table of a kernel held as its cone columns
    (splitting_kernel), by the unfold rule from node indices: the column at
    node y is the cone column at y's mirror image on the axes where y is
    negative, read at every row mirrored on those axes."""
    n, idx, axes = grid.n_axis, grid.axis_index, list(axes)
    neg = idx[axes] < n // 2
    at = np.cumsum(~neg.any(axis=0)) - 1  # cone column of each cone node
    out = np.empty((len(grid),) * 2)
    for y in range(len(grid)):
        m = idx.copy()
        m[axes] = np.where(neg[:, y, None], n - 1 - m[axes], m[axes])
        r = np.ravel_multi_index(tuple(m), (n,) * grid.dimension)
        out[:, y] = W[r, at[r[y]]]
    return out


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
        # the trivial group's orbit window is the classical one: 2t off the
        # origin, where the sign orbit doubles it
        t = 0.5
        off = kato_modulus(ONE, t, CLASSICAL, probes=(2.0,))
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

    def test_equivalence_takes_each_window_once(self):
        # the probes' classical windows are also the upper leg's, and -0.0 is 0.0
        soft = potential_function("soft_coulomb", a=1.0)
        probes = (0.0, 0.25, 0.5, 1.0, 2.0)
        with mock.patch.object(kato, "quad", wraps=kato.quad) as q:
            (row,) = kato_equivalence_check(soft, (0.25,), probes=probes)["rows"]
        # one quadrature of 17 integrals: 9 classical windows at 0, +-0.25,
        # +-0.5, +-1, +-2 and 8 orbit intervals
        self.assertEqual(q.call_count, 1)
        self.assertEqual(len(q.call_args.args[1]), 17)
        self.assertEqual(row["classical"], kato_modulus(soft, 0.25, CLASSICAL, probes).value)
        self.assertEqual(row["orbit"], kato_modulus(soft, 0.25, ORBIT, probes).value)
        upper = max(
            kato_modulus(soft, 0.25, CLASSICAL, (p,)).value
            + kato_modulus(soft, 0.25, CLASSICAL, (-p,)).value
            for p in probes
        )
        self.assertEqual(row["upper"], upper)

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
            self.assertAlmostEqual(hm.value, t, places=8)

    def test_monotone_in_t(self):
        soft = potential_function("soft_coulomb", a=1.0)
        h1 = heat_modulus(self.rs, soft, 0.1)
        h2 = heat_modulus(self.rs, soft, 1.0)
        self.assertLess(h1.value, h2.value)

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
                    (got,), _ = semigroup_abs_potential(rs, _gauss, s, x)
                    self.assertLess(abs(got - ref), 1e-10 * ref, (kap, x, s))

    def test_heat_modulus_is_the_time_rule(self):
        for kap in self.KAPPAS:
            rs = RootSystem.z2_product([kap])
            for x in self.XS:
                for t in (1.0, 0.3, 0.03):
                    s, w = _time_rule(t)
                    ref = float(w @ _gauss_flow(kap, s, x))
                    got = heat_modulus(rs, _gauss, t, probes=(x,)).value
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


def _origin_oracle(kap, t, V):
    """m_t(0) = heat_modulus at probe 0 in closed form in time: at x = 0 the
    kernel is e^{-y^2/4s} / (c_k (2s)^a), a = kappa + 1/2, whose integral
    over s in [0, t] is 2^-a b^(1-a) Gamma(a - 1, b/t) / c_k, b = y^2/4;
    then one mpmath quadrature over y >= 0 against 2 V(y) (sqrt(2) y)^(2 kappa)."""
    with mp.workdps(20):
        a = mp.mpf(kap) + mp.mpf(0.5)
        ck = 2 ** (2 * a - mp.mpf(0.5)) * mp.gamma(a)

        def f(y):
            b = y * y / 4
            return 2 ** -a * b ** (1 - a) * mp.gammainc(a - 1, b / t) / ck * V(y) * (2 * y * y) ** kap

        return float(2 * mp.quad(f, [0, mp.sqrt(t), 1, 4, mp.inf]))


class TestOriginOracle(unittest.TestCase):
    def test_heat_modulus_at_origin(self):
        # independent of _time_rule and quad; the gap measured is at most
        # 5.4e-12.  inverse_power is left out: the time rule's first panel
        # [0, t 1e-4] reads it low by 7.7e-6 to 2.2e-5 (ROADMAP, "The Kato
        # layer: which class, one rule that holds at every kappa, and an
        # exact time rule")
        cases = (
            (potential_function("constant", c=1.0), lambda y: 1),
            (potential_function("soft_coulomb", a=1.0), lambda y: 1 / (1 + y * y)),
        )
        for V, V_mp in cases:
            for kap in (0.0, 0.5, 1.5):
                rs = RootSystem.z2_product([kap])
                for t in (0.03, 0.3, 1.0):
                    ref = _origin_oracle(kap, t, V_mp)
                    got = heat_modulus(rs, V, t).value
                    self.assertLess(abs(got - ref), 1e-10 * ref, (kap, t))


class TestBatches(unittest.TestCase):
    """Each Kato question is one quadrature of many integrals, and each value
    is bit for bit the one its own quadrature gives."""

    def test_heat_flows_match_single_probes(self):
        rs = RootSystem.z2_product([0.5])
        V = potential_function("inverse_power", beta=0.75)
        probes = (0.0, 0.25, 1.0, 2.0)
        s, w = _time_rule(0.3)
        # values and errors alike
        got = semigroup_abs_potential(rs, V, s, probes, w)
        single = np.hstack([semigroup_abs_potential(rs, V, s, x, w) for x in probes])
        self.assertTrue(np.array_equal(got, single))
        ts = (1.0, 0.3, 0.03)
        moduli = heat_modulus(rs, V, ts, probes)
        self.assertEqual(moduli, [heat_modulus(rs, V, t, probes) for t in ts])

    def test_windows_match_single_windows(self):
        V = potential_function("bump", h=1.0, w=4.0)
        ts = (0.01, 0.3, 1.0)
        for form in (CLASSICAL, ORBIT):
            ms = kato_modulus(V, ts, form, (0.0, 0.5, 3.9))
            self.assertEqual(ms, [kato_modulus(V, t, form, (0.0, 0.5, 3.9)) for t in ts])

    def test_classify_takes_two_quadratures(self):
        # every T_WINDOW window of five probes in one call, both heat moduli
        # in one more
        rs = RootSystem.z2_product([0.5])
        soft = potential_function("soft_coulomb", a=1.0)
        with mock.patch.object(kato, "quad", wraps=kato.quad) as q:
            rep = classify(rs, soft, (0.0, 0.25, 0.5, 1.0, 2.0))
        self.assertLessEqual(q.call_count, 3)
        self.assertEqual(rep.verdict, "Kato")
        # the error estimates behind the moduli the verdict reads
        hm, mc = max(rep.heat_modulus.values()), max(rep.modulus_classical.values())
        self.assertLessEqual(rep.diagnostics["heat_error"], QUAD_TOL * max(1.0, hm))
        self.assertLessEqual(rep.diagnostics["window_error"], 1.49e-8 * max(1.0, mc))

    def test_classify_takes_the_public_heat_path(self):
        # both heat moduli through one heat_modulus call, on a batch of one
        # potential, and one flow quadrature under it, each modulus with its
        # error and argmax probe
        rs = RootSystem.z2_product([0.5])
        soft = potential_function("soft_coulomb", a=1.0)
        probes = (0.0, 0.25, 0.5, 1.0, 2.0)
        real, moduli = kato.heat_modulus, []

        def recorded(*args, **kwargs):
            out = real(*args, **kwargs)
            (per_time,) = out
            moduli.extend(per_time)
            return out

        flows = mock.patch.object(kato, "semigroup_abs_potential", wraps=kato.semigroup_abs_potential)
        with mock.patch.object(kato, "heat_modulus", wraps=recorded) as hm, flows as sg:
            rep = classify(rs, soft, probes)
        self.assertEqual((hm.call_count, sg.call_count), (1, 1))
        self.assertEqual([m.value for m in moduli], list(rep.heat_modulus.values()))
        for m in moduli:
            self.assertIsInstance(m, kato.ModulusValue)
            self.assertFalse(m.divergent)
            self.assertLessEqual(m.error, QUAD_TOL * max(1.0, m.value))
            self.assertIn(m.argmax_probe, probes)


    KATO_CLASS = (
        ("constant", {"c": 1.0}),
        ("soft_coulomb", {"a": 1.0}),
        ("bump", {"h": 1.0, "w": 4.0}),
        ("inverse_power", {"beta": 0.75, "cutoff": 1.0}),
        ("inverse_power", {"beta": 1.5, "cutoff": 1.0}),
    )

    def test_classify_batch_matches_single_calls(self):
        # the kato_class presets, one of them with divergent windows
        rs = RootSystem.z2_product([0.5])
        probes = (0.0, 0.25, 0.5, 1.0, 2.0)
        Vs = [potential_function(name, **params) for name, params in self.KATO_CLASS]
        reps = classify(rs, Vs, probes)
        self.assertEqual(reps, [classify(rs, V, probes) for V in Vs])
        self.assertEqual([r.verdict for r in reps], ["Kato"] * 4 + ["NotKato"])

    def test_heat_modulus_batch_matches_single_calls(self):
        rs = RootSystem.z2_product([1.5])
        Vs = [potential_function("bump", h=1.0, w=4.0), potential_function("inverse_power", beta=0.75)]
        probes, ts = (0.0, 0.5, 2.0), (1.0, 0.1)
        got = heat_modulus(rs, Vs, ts, probes)
        self.assertEqual(got, [heat_modulus(rs, V, ts, probes) for V in Vs])
        self.assertEqual(heat_modulus(rs, Vs, 0.1, probes), [m[1] for m in got])
        # values and errors alike
        s, w = _time_rule(0.3)
        vals, errs = semigroup_abs_potential(rs, Vs, s, probes, w)
        single = [semigroup_abs_potential(rs, V, s, probes, w) for V in Vs]
        self.assertTrue(np.array_equal(vals, [v for v, _ in single]))
        self.assertTrue(np.array_equal(errs, [e for _, e in single]))

    def test_batched_heat_leg_is_one_quadrature(self):
        rs = RootSystem.z2_product([0.5])
        Vs = [potential_function(name, **params) for name, params in self.KATO_CLASS[:4]]
        with mock.patch.object(kato, "quad", wraps=kato.quad) as q:
            heat_modulus(rs, Vs, (1.0, 0.03), (0.0, 0.25, 0.5, 1.0, 2.0))
        self.assertEqual(q.call_count, 1)
        # classify adds one window quadrature a potential
        with mock.patch.object(kato, "quad", wraps=kato.quad) as q:
            classify(rs, Vs, (0.0, 0.25, 0.5, 1.0, 2.0))
        self.assertEqual(q.call_count, len(Vs) + 1)

    def test_values_do_not_depend_on_chunk(self):
        # _flow_density's promise, a value depends only on its y and its
        # row: values and errors alike at the old CHUNK and the new, which
        # splits more integrand calls into more tables
        rs = RootSystem.z2_product([0.5])
        Vs = [potential_function("inverse_power", beta=0.75), potential_function("soft_coulomb", a=1.0)]
        probes = (0.0, 0.25, 1.0, 2.0)
        s, w = _time_rule(0.3)
        got = {}
        for chunk in (2**16, 2**14):
            table = mock.patch.object(kato, "even_axis_factor", wraps=kato.even_axis_factor)
            with mock.patch.object(kato, "CHUNK", chunk), table as f:
                got[chunk] = semigroup_abs_potential(rs, Vs, s, probes, w), f.call_count
        (big, big_calls), (small, small_calls) = got[2**16], got[2**14]
        self.assertGreater(small_calls, big_calls)
        self.assertTrue(np.array_equal(big[0], small[0]))
        self.assertTrue(np.array_equal(big[1], small[1]))

    def test_kernel_is_evaluated_once_per_point(self):
        # two copies of one potential share every (kernel row, y) point
        rs = RootSystem.z2_product([0.5])
        V = potential_function("soft_coulomb", a=1.0)
        probes = (0.0, 0.7, 1.5)

        real = kato.even_axis_factor

        def entries(Vs):
            sizes = []

            def counted(*args):
                out = real(*args)
                sizes.append(out.size)
                return out

            with mock.patch.object(kato, "even_axis_factor", counted):
                moduli = heat_modulus(rs, Vs, (1.0, 0.3), probes)
            return sum(sizes), moduli

        one, (m1,) = entries([V])
        two, (m2, m3) = entries([V, V])
        self.assertGreater(one, 0)
        self.assertLessEqual(two, one)
        self.assertEqual(m1, m2)
        self.assertEqual(m2, m3)


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
                got = heat_modulus(rs, V, t, probes=(x,)).value
                ref = heat_modulus(rs, plain, t, probes=(x,)).value
                self.assertLess(abs(got - ref), max(1e-10 * ref, 1e-12), (x, t))


class TestGrowthBound(unittest.TestCase):
    def test_constant_trivial_group(self):
        rep = growth_bound_check(ONE, (0.5, 1.0, 2.0, 4.0), form=CLASSICAL)
        self.assertLess(rep["C"], 2.0)
        self.assertTrue(rep["stable"])

    def test_orbit_form_larger(self):
        flat = growth_bound_check(ONE, (1.0, 2.0), probes=(3.0,), form=CLASSICAL)
        orbit = growth_bound_check(ONE, (1.0, 2.0), probes=(3.0,))
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
                    W, axes = splitting_kernel(grid, pot, t, splitting_steps(grid, t))
                    got = smoothing_norms_of_kernel(grid, W, [], axes).l2_direct
                    ref = svdvals(dh[:, None] * _unfold(grid, W, axes) * dh[None, :])[0]
                    self.assertLessEqual(abs(got - ref), 1e-13 * ref)

    def test_tiled_asymmetry_is_the_full_one(self):
        # N = 200 ends in a part tile; 576 and 1024 are the rank-two grids
        rng = np.random.default_rng(3)
        for n in (200, 576, 1024):
            W = rng.random((n, n))
            W = W + W.T
            W[n - 1, n - 3] += 1e-9  # the largest skew in the last tile
            W[7, n - 2] -= rng.random() * 1e-10
            V = rng.random((n, n))
            for M in (W, V):
                self.assertEqual(_max_asymmetry(M), np.max(np.abs(M - M.T)))

    def test_growing_lanczos_basis_is_bit_identical(self):
        def preallocated(S, v0):  # the n x n basis allocated up front
            n = len(v0)
            Q = np.empty((n, n))
            Q[0] = v0 / math.sqrt(v0 @ v0)
            alpha, beta = [], []
            for k in range(n):
                w = S @ Q[k]
                alpha.append(float(Q[k] @ w))
                for _ in range(2):
                    w -= Q[: k + 1].T @ (Q[: k + 1] @ w)
                theta, y = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
                b = math.sqrt(w @ w)
                if b * abs(y[-1, -1]) <= 4.0 * np.finfo(float).eps * abs(theta[-1]):
                    return float(theta[-1])
                beta.append(b)
                Q[k + 1] = w / b

        for grid in (self.grid, build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)):
            dh = np.sqrt(grid.mu_weights)
            for t in (0.1, 1.0):
                W, axes = splitting_kernel(grid, self.pot if grid is self.grid else None, t,
                                           splitting_steps(grid, t))
                S = dh[:, None] * _unfold(grid, W, axes) * dh[None, :]
                self.assertEqual(_top_eigenvalue(lambda v: S @ v, dh), preallocated(S, dh))

    def test_even_block_lanczos_matches_the_whole(self):
        # on the all-even block (N / 2^d unknowns) for invariant kernels, on
        # the whole kernel for one that no reflection leaves unchanged
        rng = np.random.default_rng(4)
        rank_two = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        drawn = rng.random(len(rank_two)) * np.exp(-np.sum(rank_two.nodes**2, axis=1))
        cases = [(self.grid, self.pot, 2), (rank_two, None, 4),
                 (rank_two, potential_preset(rank_two, "soft_coulomb", a=1.0), 4),
                 (rank_two, dataclasses.replace(self.pot, values=drawn), 1)]
        for grid, pot, blocks in cases:
            dh = np.sqrt(grid.mu_weights)
            for t in (0.1, 0.5, 1.0):
                with self.subTest(rank=grid.dimension, blocks=blocks, t=t):
                    W, axes = splitting_kernel(grid, pot, t, splitting_steps(grid, t))
                    self.assertEqual(2 ** len(axes), blocks)
                    with mock.patch.object(kato, "_top_eigenvalue", wraps=_top_eigenvalue) as top:
                        got = smoothing_norms_of_kernel(grid, W, [], axes).l2_direct
                    self.assertEqual(len(top.call_args.args[1]), len(grid) // blocks)
                    W = _unfold(grid, W, axes)
                    whole = _top_eigenvalue(lambda v: dh * (W @ (dh * v)), dh)
                    self.assertLessEqual(abs(got - whole), 1e-14 * whole)
                    if blocks == 1:
                        self.assertEqual(got, whole)

    def test_kernel_must_be_nonnegative_and_symmetric(self):
        # entries (h + 3, h + 5) and (h + 5, h + 3) of the whole table, at
        # cone nodes 3 and 5 (x > 0 starts at node h), and a skew in a row at
        # x < 0, which only the mirrored quadrant table holds
        grid, h = self.grid, self.grid.n_axis // 2
        W, axes = splitting_kernel(grid, self.pot, 0.5, 1)
        smoothing_norms_of_kernel(grid, W, [], axes)
        neg = W.copy()
        neg[h + 3, 5] = neg[h + 5, 3] = -1e-300
        skew, mirrored = W.copy(), W.copy()
        skew[h + 3, 5] += 1e-9 * W.max()
        mirrored[3, 5] += 1e-9 * W.max()
        for bad in (neg, skew, mirrored):
            with self.assertRaises(InputError):
                smoothing_norms_of_kernel(grid, bad, [], axes)
            with self.assertRaises(InputError):
                smoothing_norms_of_kernel(grid, _unfold(grid, bad, axes), [])

    def test_layout_must_match_the_axes(self):
        # the cone columns read as a whole table, and the reverse
        W, axes = splitting_kernel(self.grid, self.pot, 0.5, 1)
        for table, claimed in ((W, ()), (_unfold(self.grid, W, axes), axes)):
            with self.assertRaises(InputError):
                smoothing_norms_of_kernel(self.grid, table, [], claimed)

    def test_cone_columns_give_the_norms_of_the_whole_table(self):
        # against the same product on every column (the split turned off):
        # its cone columns are bit for bit the kernel's, its other columns
        # differ from their mirror copies by rounding alone, and so do the
        # norms; the quadrant tables give the unfolded table's asymmetry
        rank_two = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 32)
        pq = [(1, 2), (2, 2), (2, "inf"), (1, "inf")]
        cases = [(rank_two, potential_preset(rank_two, "soft_coulomb", a=1.0), t)
                 for t in (0.1, 0.5, 1.0)] + [(rank_two, None, 0.5), (self.grid, self.pot, 0.5)]
        for grid, pot, t in cases:
            with self.subTest(rank=grid.dimension, free=pot is None, t=t):
                W, axes = splitting_kernel(grid, pot, t, splitting_steps(grid, t))
                self.assertEqual(axes, tuple(range(grid.dimension)))
                with mock.patch.object(schrodinger, "_split_axes", return_value=()):
                    dense = splitting_kernel(grid, pot, t, splitting_steps(grid, t))[0]
                cone = np.flatnonzero(np.all(grid.nodes > 0, axis=1))
                self.assertTrue(np.array_equal(dense[:, cone], W))
                full = _unfold(grid, W, axes)
                self.assertTrue(np.array_equal(full[:, cone], W))
                for q in range(1, 2 ** grid.dimension):  # every reflection, exactly
                    flip = [j for j in range(grid.dimension) if q >> j & 1]
                    X = full.reshape((grid.n_axis,) * 2 * grid.dimension)
                    M = np.flip(X, flip + [j + grid.dimension for j in flip])
                    self.assertTrue(np.array_equal(M, X))
                self.assertLessEqual(np.max(np.abs(full - dense)), 1e-15 * np.max(W))
                rep = smoothing_norms_of_kernel(grid, W, pq, axes)
                ref = smoothing_norms_of_kernel(grid, dense, pq)
                self.assertEqual(rep.corner_norms[(1, "inf")], ref.corner_norms[(1, "inf")])
                for a, b in zip([*rep.corner_norms.values(), *rep.interpolated.values(),
                                 rep.l2_direct], [*ref.corner_norms.values(),
                                                  *ref.interpolated.values(), ref.l2_direct]):
                    self.assertLessEqual(abs(a - b), 1e-15 * b)
                skew = W.copy()
                skew[7, 3] += 1e-9 * W.max()
                for M in (W, skew):
                    quads = _quadrants(M, grid.n_axis, grid.dimension, axes)
                    self.assertEqual(max(map(_max_asymmetry, quads)),
                                     _max_asymmetry(_unfold(grid, M, axes)))

if __name__ == "__main__":
    unittest.main()
