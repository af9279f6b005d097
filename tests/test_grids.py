"""The grid's tensor layout: one axis rule, row-major nodes, exact negation,
and Kronecker factors applied mode-wise."""

import tracemalloc
import unittest
from functools import reduce

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st

from numpy.polynomial.legendre import leggauss

from dunklkit import grids, operators, schrodinger
from dunklkit.grids import axis_rule, build_grid, kron_apply, tensor_rule
from dunklkit.heat import axis_factor, heat_axis_tables
from dunklkit.intertwine import e_minus_i
from dunklkit.reflection import RootSystem
from dunklkit.transform import _axis_spectral

GRIDS = (([0.7], 8.0, 64), ([0.5, 1.0], 6.0, 24), ([0.5, 0.0, 1.5], 4.0, 12))


def _mp_legendre_rule(n, guesses):
    """Gauss-Legendre nodes and weights at 40 digits: one Newton step from
    each guess on P_n by its three-term recurrence, then 2 / ((1 - x^2) P_n'^2)."""

    def p_and_dp(x):
        p0, p1 = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    xs, ws = [], []
    with mpmath.workdps(40):
        for g in guesses:
            x = mpmath.mpf(g)
            p, dp = p_and_dp(x)
            x -= p / dp
            _, dp = p_and_dp(x)
            xs.append(float(x))
            ws.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(xs), np.array(ws)


class TestAxisRule(unittest.TestCase):
    def test_legendre_rule_matches_mpmath(self):
        # the positive half of axis_rule(2, 2n) is the n-point rule shifted
        # by 1; its weights, from numpy's leggauss, are off by 1.4e-11 at n = 128
        for n in (8, 64, 128):
            x, w = (a[n:] for a in axis_rule(2.0, 2 * n))
            ref_x, ref_w = _mp_legendre_rule(n, x - 1.0)
            np.testing.assert_allclose(x - 1.0, ref_x, rtol=0, atol=4e-16)
            np.testing.assert_allclose(w, ref_w, rtol=2e-11, atol=0)

    def test_reference_rule_once_per_order(self):
        # two half-widths with one node count compute the Legendre rule once,
        # and each rule is the scaled reference bit for bit
        grids._legendre.cache_clear()
        for R in (14.0, 10.0, 5.77):
            axis_rule.cache_clear()
            x, w = axis_rule(R, 48)
            xg, wg = leggauss(24)
            self.assertTrue(np.array_equal(x[24:], 0.5 * R * (xg + 1.0)))
            self.assertTrue(np.array_equal(w[24:], 0.5 * R * wg))
        self.assertEqual(grids._legendre.cache_info().misses, 1)


class TestLayout(unittest.TestCase):
    def test_nodes_read_the_axis_rule(self):
        for kappas, R, n in GRIDS:
            grid = build_grid(RootSystem.z2_product(kappas), R, n)
            self.assertEqual(grid.n_axis, n)
            self.assertTrue(np.all(np.diff(grid.axis) > 0))
            for j in range(len(kappas)):
                self.assertTrue(np.array_equal(grid.nodes[:, j], grid.axis[grid.axis_index[j]]))

    def test_negation_is_reversed_order(self):
        for kappas, R, n in GRIDS:
            grid = build_grid(RootSystem.z2_product(kappas), R, n)
            self.assertTrue(np.array_equal(grid.nodes[grid.negation_perm], -grid.nodes))

    def test_tensor_weights_are_products(self):
        nodes, weights = tensor_rule([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])],
                                     [np.array([0.5, 0.25]), np.array([1.0, 2.0, 4.0])])
        self.assertTrue(np.array_equal(nodes[4], [2.0, 4.0]))
        self.assertTrue(np.array_equal(weights, [0.5, 1.0, 2.0, 0.25, 0.5, 1.0]))


class TestKronApply(unittest.TestCase):
    def test_matches_dense_kronecker_product(self):
        # real and complex factors and values, identity slots, samples and matrices
        rng = np.random.default_rng(8)
        n = 5
        for d in (1, 2, 3):
            for dtype in (float, complex):
                mats = [rng.standard_normal((n, n)).astype(dtype) for _ in range(d)]
                if dtype is complex:
                    mats = [M + 1j * rng.standard_normal((n, n)) for M in mats]
                for slots in (mats, [None] * (d - 1) + mats[-1:]):
                    dense = reduce(np.kron, [np.eye(n) if M is None else M for M in slots])
                    for shape in ((n**d,), (n**d, 4)):
                        v = rng.standard_normal(shape)
                        if dtype is complex:
                            v = v + 1j * rng.standard_normal(shape)
                        got = kron_apply(slots, v)
                        self.assertEqual(got.shape, shape)
                        np.testing.assert_allclose(got, dense @ v, rtol=1e-13, atol=1e-13)


def _all_pairs_table(grid, fn):
    """Reference: fn on every unordered pair of the whole axis."""
    iu, ju = np.triu_indices(grid.n_axis)
    vals = fn(grid.axis[iu], grid.axis[ju])
    table = np.empty((grid.n_axis, grid.n_axis), dtype=vals.dtype)
    table[iu, ju] = table[ju, iu] = vals
    return table


def _built_tables(grid, t):
    """(scalar fn, table) of the heat factor at t and of the transform factor
    on each axis, as heat_axis_tables and the transform build them."""
    kappas = [float(k) for k in grid.rs.multiplicities]
    for k, T in zip(kappas, heat_axis_tables(grid, t)[1]):
        yield (lambda x, y, k=k: axis_factor(x, y, t, k)), T
    for k in kappas:
        yield (lambda x, y, k=k: e_minus_i(x * y, k)), _axis_spectral(k, grid.half_width, grid.n_axis)[0]


class TestAxisTable(unittest.TestCase):
    def test_pairs_fill_their_blocks(self):
        # fn's two values land where f has them: against f on every pair, an
        # f of a b, |a| and |b| that tells (a, b) from (-a, b)
        f = lambda x, y: np.sin(x * y) + np.exp(-np.abs(x) - np.abs(y))
        for R, n in ((3.0, 2), (6.0, 32), (10.0, 128)):
            grid = build_grid(RootSystem.z2_product([0.5]), R, n)
            got = grid.axis_table(lambda a, b: (f(a, b), f(-a, b)))
            self.assertTrue(np.array_equal(got, _all_pairs_table(grid, f)))

    def test_half_axis_equals_all_pairs(self):
        # the heat factor and the transform factor on the grids the suites
        # build: the mirrored pair (even - odd, the conjugate) is bit for bit
        # the factor evaluated at (-a, b)
        cases = [([k], R, n) for k in (0.0, 0.5, 1.5)
                 for R, n in ((10.0, 128), (14.0, 256), (10.0, 384), (6.0, 32))]
        cases += [([0.5], 4.0, 160), ([0.5, 1.0], 6.0, 32)]
        for kappas, R, n in cases:
            grid = build_grid(RootSystem.z2_product(kappas), R, n)
            for t in (0.02, 0.1, 1.0):
                for fn, T in _built_tables(grid, t):
                    with self.subTest(kappas=kappas, R=R, n=n, t=t):
                        self.assertTrue(np.array_equal(T, _all_pairs_table(grid, fn)))

    @settings(max_examples=40, deadline=None)
    @given(
        half=st.integers(1, 48),
        R=st.floats(0.5, 20.0),
        kappa=st.floats(0.0, 2.0),
        t=st.floats(0.01, 4.0),
    )
    def test_table_is_symmetric_and_even(self, half, R, kappa, t):
        grid = build_grid(RootSystem.z2_product([kappa]), R, 2 * half)
        for _, T in _built_tables(grid, t):
            self.assertTrue(np.array_equal(T, T.T))
            self.assertTrue(np.array_equal(T, T[::-1, ::-1]))


class TestTableMemory(unittest.TestCase):
    """Cold builds of the n x n tables peak, as traced by tracemalloc, below
    a stated multiple of one n x n float64 table."""

    def peak_tables(self, build, n):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (8.0 * n * n)

    def test_builds_stay_within_budget(self):
        grid = build_grid(RootSystem.z2_product([0.5]), 14.0, 256)
        cases = (
            # the kernel table, its symmetric half (1/2) and the parity blocks
            ("free_modes", lambda: schrodinger._axis_free_modes.__wrapped__(0.5, 10.0, 384, 0.1), 384, 1.75),
            # T and the stencil's windows
            ("derivative", lambda: operators._axis_derivative.__wrapped__(0.5, 10.0, 384), 384, 1.35),
            # the table and the temporaries of the Bessel pair on the half-axis pairs
            ("heat_tables", lambda: heat_axis_tables(grid, 0.1), 256, 1.75),
        )
        for name, build, n, budget in cases:
            with self.subTest(name):
                self.assertLess(self.peak_tables(build, n), budget)


if __name__ == "__main__":
    unittest.main()
