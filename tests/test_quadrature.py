"""Adaptive qk21 quadrature on arrays, and its cost in the Kato heat leg."""

import math
import unittest

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dunklkit.kato import _time_rule, heat_modulus, kato_modulus, semigroup_abs_potential
from dunklkit.quadrature import GAUSS, KRONROD, NODES, quad
from dunklkit.reflection import RootSystem
from dunklkit.schrodinger import potential_function


def _counted(V):
    """V with a count of its calls, keeping its breaks."""
    calls = []

    def fn(y):
        calls.append(np.shape(y))
        return V(y)

    fn.breaks = V.breaks
    return fn, calls


class TestRule(unittest.TestCase):
    def test_degrees_of_exactness(self):
        # on [0, 1]: the 21-point Kronrod rule integrates y^31 exactly and
        # its 10-point Gauss part y^19 (swapped Gauss weights fail here)
        y = 0.5 * (NODES + 1.0)
        self.assertAlmostEqual(0.5 * KRONROD @ y**31, 1.0 / 32.0, places=15)
        self.assertAlmostEqual(0.5 * GAUSS @ y**19, 1.0 / 20.0, places=15)
        self.assertGreater(abs(0.5 * GAUSS @ y**20 - 1.0 / 21.0), 1e-13)

    def test_graded_endpoint_singularity(self):
        calls = []

        def f(y, owner):
            calls.append(y.shape)
            return y**-0.75

        (val,), (err,), (ok,) = quad(f, [0.0], [1.0], breaks=(0.0,))
        self.assertTrue(ok)
        self.assertLess(abs(val - 4.0), 1e-8)
        self.assertLessEqual(err, 1.49e-8 * 4.0)
        # one flat call per round, 21 nodes a panel
        self.assertTrue(all(len(c) == 1 and c[0] % 21 == 0 for c in calls))

    def test_non_integrable_is_unconverged(self):
        _, _, (ok,) = quad(lambda y, owner: np.abs(y) ** -1.5, [-1.0], [1.0], (0.0,))
        self.assertFalse(ok)

    def test_non_integrable_stops_early(self):
        # every graded split at 0 finds the near piece 8^(beta-1) >= 1 times
        # its panel: the quadrature gives up in a few rounds, not QUAD_LIMIT
        for beta in (1.0, 1.5, 3.0):
            calls = []

            def f(y, owner, beta=beta):
                calls.append(y.shape)
                return np.abs(y) ** -beta

            _, _, (ok,) = quad(f, [-1.0], [1.0], (0.0,))
            self.assertFalse(ok)
            self.assertLessEqual(len(calls), 8)

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.floats(0.0, 0.99),
        a=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        b=st.floats(1e-3, 10.0),
    )
    def test_integrable_power_converges(self, beta, a, b):
        # |y|^-beta on [-a, b] around its break 0, for beta below 1
        (val,), _, (ok,) = quad(lambda y, owner: np.abs(y) ** -beta, [-a], [b], (0.0,), 1e-12)
        exact = (a ** (1.0 - beta) + b ** (1.0 - beta)) / (1.0 - beta)
        self.assertTrue(ok)
        self.assertLess(abs(val - exact), 1e-10 * exact)

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.floats(0.0, 0.99),
        p=st.floats(-2.0, 2.0),
        a=st.floats(1e-3, 10.0),
        b=st.floats(1e-3, 10.0),
    )
    # the geometric tail on panels 6e-11 wide at p = 0.25, whose node
    # distances to p are rounded by 1e-17, was off by 4.3e-11 here, against
    # an error estimate of 1.5e-12
    @example(beta=0.46875, p=0.25, a=1.0, b=0.001)
    # the tail next to p = 1 on panels 1e-3 wide read 3.2e-10 high against
    # an error estimate of 5e-12: its nearest node sits 3e-7 from p, so
    # rounding moved that node's value by 3e-10 relative
    @example(beta=0.90625, p=1.0, a=3.0, b=0.07503967481091996)
    def test_break_off_zero_never_converges_wrong(self, beta, p, a, b):
        # |y - p|^-beta on [p - a, p + b]: away from p = 0 quad often ends
        # unconverged at tol 1e-12 (a known defect, ROADMAP "Latent quad limit"),
        # but it must never claim a wrong or non-finite value
        with np.errstate(divide="ignore", invalid="ignore"):
            (val,), _, (ok,) = quad(lambda y, owner: np.abs(y - p) ** -beta, [p - a], [p + b], (p,), 1e-12)
        exact = (a ** (1.0 - beta) + b ** (1.0 - beta)) / (1.0 - beta)
        if p == 0.0:
            self.assertTrue(ok)
        if ok:
            self.assertTrue(math.isfinite(val))
            self.assertLessEqual(abs(val - exact), 1e-11 * max(1.0, exact))

    def test_spike_next_to_break_converges(self):
        # y^-0.5 with a narrow spike 2e-3 from the break: graded splits
        # resolve it to 1e-12 instead of giving up on it as divergent
        def f(y, owner):
            return y**-0.5 + 1e3 * np.exp(-(((y - 2e-3) / 1e-4) ** 2))

        (val,), _, (ok,) = quad(f, [0.0], [1.0], (0.0,), 1e-12)
        exact = 2.0 + 0.05 * math.sqrt(math.pi) * (1.0 + math.erf(20.0))
        self.assertTrue(ok)
        self.assertLess(abs(val - exact), 1e-12 * exact)

    def test_smooth_at_break_keeps_rule_accuracy(self):
        # the geometric tail is taken only where it beats the rule's own
        # error: taken on every graded split, this misses by 1e-9 relative
        (val,), _, (ok,) = quad(lambda y, owner: np.exp(-40.0 * y), [0.0], [1.0], breaks=(0.0,))
        exact = -np.expm1(-40.0) / 40.0
        self.assertTrue(ok)
        self.assertLess(abs(val - exact), 1e-14 * exact)


def _family(kind, beta, p, y, owner):
    """Integrand kinds: |y - p|^-beta (0), a smooth wave (1), a jump at p (2);
    the parameters of the point's own integral, by owner."""
    k, bt, pp = kind[owner], beta[owner], p[owner]
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.abs(y - pp) ** -bt
    return np.where(k == 0, power, np.where(k == 1, np.cos(3.0 * y + pp), np.where(y < pp, 1.0, 2.0) + y))


class TestBatch(unittest.TestCase):
    def test_batch_form(self):
        vals, errs, oks = quad(lambda y, owner: np.exp(y), [0.0, 0.0], [1.0, 2.0])
        self.assertEqual(vals.shape, (2,))
        self.assertEqual(oks.dtype, bool)
        one = quad(lambda y, owner: np.exp(y), [0.0], [1.0])
        self.assertEqual((vals[0], errs[0], oks[0]), tuple(c[0] for c in one))
        self.assertLess(abs(vals[1] - math.expm1(2.0)), 1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.floats(0.0, 0.99),
                st.floats(-2.0, 2.0),
                st.floats(1e-3, 5.0),
                st.floats(1e-3, 5.0),
            ),
            min_size=1,
            max_size=5,
        ),
        st.floats(1e-13, 1e-8),
    )
    def test_batch_independence(self, members, tol):
        # each integral's (value, error, converged) is bit for bit its
        # one-integral batch's, whatever else is in its batch; the last
        # member diverges
        kind, beta, p, a, b = (np.array(c) for c in zip(*members, (0, 1.5, 0.0, 1.0, 1.0)))
        breaks = [[pj] if kj != 1 else [] for kj, pj in zip(kind, p)]
        lo, hi = p - a, p + b
        got = quad(lambda y, owner: _family(kind, beta, p, y, owner), lo, hi, breaks, tol)
        self.assertFalse(got[2][-1])
        for j in range(len(kind)):
            one = slice(j, j + 1)
            own = quad(
                lambda y, owner: _family(kind, beta, p, y, owner + j), lo[one], hi[one], breaks[one], tol
            )
            self.assertTrue(np.array_equal([c[j] for c in got], [c[0] for c in own]), (j, own))


class TestKatoCost(unittest.TestCase):
    def test_soft_coulomb_flow_calls(self):
        # a scalar adaptive quadrature (QUADPACK's QAGS) made about 390 calls
        rs = RootSystem.z2_product([0.5])
        for s, w in ((1.0, 1.0), _time_rule(1.0)):
            V, calls = _counted(potential_function("soft_coulomb", a=1.0))
            semigroup_abs_potential(rs, V, s, 0.0, w)
            self.assertLessEqual(len(calls), 20)

    def test_inverse_power_heat_modulus(self):
        # y^-0.75 at y = 0: 1/8 grading alone takes 54 rounds a probe at
        # QUAD_TOL (halving 154); with the geometric tail, 31 for all three
        rs = RootSystem.z2_product([0.0])
        V, calls = _counted(potential_function("inverse_power", beta=0.75))
        got = heat_modulus(rs, V, 1.0, probes=(0.0, 0.5, 2.0)).value
        self.assertLess(abs(got - 3.8359459882260505), 1e-10 * got)
        self.assertLessEqual(len(calls), 40)

    def test_inverse_power_near_one(self):
        # y^-beta for beta near 1: grading alone cuts the error by 8^(beta-1)
        # a round and hit the panel limit from beta 0.9 on; the values on the
        # right are QUADPACK's QAGS (Wynn extrapolation) at the same tolerances
        rs = RootSystem.z2_product([0.0])
        for beta, heat in ((0.9, 10.503798763714146), (0.95, 21.74246072641635),
                           (0.99, 111.93225755670639)):
            V = potential_function("inverse_power", beta=beta)
            m = kato_modulus(V, 0.5, probes=(0.0,))
            self.assertFalse(m.divergent)
            exact = 2.0 * 0.5 ** (1.0 - beta) / (1.0 - beta)
            self.assertLess(abs(m.value - exact), 1e-10 * exact)
            got = heat_modulus(rs, V, 1.0, probes=(0.0, 0.5, 2.0)).value
            self.assertLess(abs(got - heat), 1e-10 * heat)


if __name__ == "__main__":
    unittest.main()
