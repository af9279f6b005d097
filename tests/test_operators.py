"""Deformed derivative, antisymmetry, multiplier identity."""

import unittest
from functools import reduce

import mpmath
import numpy as np

from dunklkit.grids import SampledFunction, axis_rule, build_grid
from dunklkit.operators import (
    _axis_derivative,
    antisymmetry_defect,
    derivative_apply,
    diff_matrix,
    dunkl_derivative,
    dunkl_derivative_matrix,
    dunkl_laplacian,
    multiplier_defect,
    spectral_laplacian,
)
from dunklkit.reflection import RootSystem
from dunklkit.transform import build_spectral_matrix


def _lagrange_derivative(xs: np.ndarray) -> np.ndarray:
    """Oracle: at each node, the derivative of the degree-6 interpolant on
    the row's 7-node window (centred, one-sided at the edges), from the
    Lagrange basis in mpmath at 40 digits."""
    n = len(xs)
    D = np.zeros((n, n))
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(v)) for v in xs]
        for i in range(n):
            lo = min(max(i - 3, 0), n - 7)
            win = range(lo, lo + 7)
            for k in win:
                # l_k'(x_i) = sum_m 1/(x_k - x_m) prod_{j != k, m} (x_i - x_j)/(x_k - x_j)
                total = mpmath.mpf(0)
                for m in win:
                    if m != k:
                        term = 1 / (x[k] - x[m])
                        for j in win:
                            if j not in (k, m):
                                term *= (x[i] - x[j]) / (x[k] - x[j])
                        total += term
                D[i, k] = float(total)
    return D


class TestStencil(unittest.TestCase):
    def test_diff_matrix_exact_on_polynomials(self):
        # the 7-node window differentiates degree <= 6 exactly, and the
        # diagonal makes every row sum vanish
        xs = np.linspace(-2, 2, 17)
        D = diff_matrix(xs)
        for deg in range(1, 7):
            np.testing.assert_allclose(D @ xs**deg, deg * xs ** (deg - 1), rtol=0, atol=1e-9)
        np.testing.assert_allclose(D.sum(axis=1), 0.0, rtol=0, atol=1e-14 * np.max(np.abs(D)))

    def test_matches_lagrange_oracle(self):
        # axis rules the package builds and a random non-uniform node set
        node_sets = [axis_rule(R, n)[0] for R, n in ((10.0, 128), (6.0, 32), (14.0, 256))]
        node_sets.append(np.sort(np.random.default_rng(3).uniform(-3.0, 3.0, 23)))
        for xs in node_sets:
            with self.subTest(n=len(xs)):
                D = diff_matrix(xs)
                scale = np.max(np.abs(D))
                np.testing.assert_allclose(
                    D, _lagrange_derivative(xs), rtol=0, atol=2e-15 * scale
                )


class TestDerivative(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.kap = 0.7
        rs = RootSystem.z2_product([cls.kap])
        cls.grid = build_grid(rs, 8.0, 64)
        cls.T = dunkl_derivative_matrix(cls.grid, 0)
        cls.xs = cls.grid.nodes[:, 0]

    def test_linear_monomial(self):
        # T x = 1 + 2 kappa, exact for polynomial inputs
        got = self.T @ self.xs
        np.testing.assert_allclose(got, np.full_like(self.xs, 1 + 2 * self.kap), atol=1e-9)

    def test_quadratic_monomial(self):
        # even part: the reflection difference vanishes, T x^2 = 2x
        got = self.T @ self.xs**2
        np.testing.assert_allclose(got, 2 * self.xs, atol=1e-8)

    def test_even_function_reduces_to_derivative(self):
        D = dunkl_derivative_matrix(
            build_grid(RootSystem.z2_product([0.0]), 8.0, 64), 0
        )
        f = np.exp(-self.xs**2)
        np.testing.assert_allclose(self.T @ f, D @ f, atol=1e-12)

    def test_rank_two_closed_form(self):
        # f = x1^3 x2^2 + x2 with kappa = (0.5, 1):
        # T_1 f = 3 x1^2 x2^2 + 0.5 (2 x1^3 x2^2) / x1 = 4 x1^2 x2^2
        # T_2 f = 2 x1^3 x2 + 1 + 1 (2 x2) / x2 = 2 x1^3 x2 + 3
        grid = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 24)
        x1, x2 = grid.nodes[:, 0], grid.nodes[:, 1]
        f = SampledFunction(grid, x1**3 * x2**2 + x2)
        expect = (4 * x1**2 * x2**2, 2 * x1**3 * x2 + 3)
        for axis in (0, 1):
            got = dunkl_derivative(grid, f, axis)
            np.testing.assert_allclose(got.values, expect[axis], rtol=0, atol=1e-9)


class TestKroneckerDerivative(unittest.TestCase):
    def test_matches_dense_oracle(self):
        # partial along axis j plus kappa_j (I - P) / x_j, P the node
        # permutation found by matching sign-flipped coordinates
        for kappas in ([0.7], [0.5, 1.0], [0.5, 0.0, 1.5]):
            grid = build_grid(RootSystem.z2_product(kappas), 4.0, 12)
            n, N = grid.n_axis, len(grid)
            index = {tuple(p): i for i, p in enumerate(grid.nodes)}
            for j, kap in enumerate(kappas):
                D = np.ones((1, 1))
                for k in range(len(kappas)):
                    D = np.kron(D, diff_matrix(grid.axis) if k == j else np.eye(n))
                flipped = grid.nodes.copy()
                flipped[:, j] *= -1.0
                P = np.zeros((N, N))
                P[np.arange(N), [index[tuple(p)] for p in flipped]] = 1.0
                oracle = D + kap * (np.eye(N) - P) / grid.nodes[:, j][:, None]
                T = dunkl_derivative_matrix(grid, j)
                self.assertEqual(T.shape, (n, n))
                slots = [T if k == j else np.eye(n) for k in range(len(kappas))]
                self.assertTrue(np.array_equal(reduce(np.kron, slots), oracle))

    def test_apply_matches_dense_oracle(self):
        # T_j along its axis against the dense Kronecker matrix, on samples
        # and on the columns of a matrix
        rng = np.random.default_rng(4)
        for kappas in ([0.7], [0.5, 1.0], [0.5, 0.0, 1.5]):
            grid = build_grid(RootSystem.z2_product(kappas), 4.0, 12)
            n, N = grid.n_axis, len(grid)
            v = rng.standard_normal((N, 3))
            for j in range(len(kappas)):
                T = dunkl_derivative_matrix(grid, j)
                dense = reduce(np.kron, [T if k == j else np.eye(n) for k in range(len(kappas))])
                ref = dense @ v
                scale = np.max(np.abs(ref))
                np.testing.assert_allclose(
                    derivative_apply(grid, v, j) / scale, ref / scale, rtol=0, atol=1e-14
                )
                f = SampledFunction(grid, v[:, 0])
                np.testing.assert_allclose(
                    dunkl_derivative(grid, f, j).values / scale, ref[:, 0] / scale,
                    rtol=0, atol=1e-14,
                )

    def test_factor_equals_the_dense_sum(self):
        # the difference term added in place on the two diagonals, bit for
        # bit the sum with the dense kappa (I - J) / x
        for kappa in (0.0, 0.5, 1.5):
            for R, n in ((10.0, 128), (14.0, 256), (10.0, 384), (6.0, 32)):
                x = axis_rule(R, n)[0]
                ref = diff_matrix(x) + kappa * (np.eye(n) - np.eye(n)[::-1]) / x[:, None]
                with self.subTest(kappa=kappa, R=R, n=n):
                    self.assertTrue(np.array_equal(_axis_derivative.__wrapped__(kappa, R, n), ref))

    def test_factor_is_memoised(self):
        grid = build_grid(RootSystem.z2_product([0.5, 1.0]), 6.0, 24)
        other = build_grid(RootSystem.z2_product([1.0]), 6.0, 24)
        T = dunkl_derivative_matrix(grid, 1)
        self.assertIs(T, dunkl_derivative_matrix(other, 0))
        self.assertFalse(T.flags.writeable)


class TestWeightedIdentities(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rs = RootSystem.z2_product([0.5])
        cls.grid = build_grid(rs, 10.0, 128)
        cls.sm = build_spectral_matrix(cls.grid)
        xs = cls.grid.nodes[:, 0]
        cls.f = SampledFunction(cls.grid, np.exp(-(xs**2) / 2.0) * (1.0 + 0.3 * xs))
        cls.g = SampledFunction(cls.grid, np.exp(-(xs**2) / 1.7) * (1.0 - 0.2 * xs))

    def test_antisymmetry(self):
        self.assertLess(antisymmetry_defect(self.grid, self.f, self.g), 1e-5)

    def test_multiplier(self):
        self.assertLess(multiplier_defect(self.sm, self.f), 1e-4)

    def test_laplacian_stencil_vs_spectral(self):
        lap = dunkl_laplacian(self.grid, self.f)
        ref = spectral_laplacian(self.sm, self.f)
        mask = self.grid.interior_mask(0.8)
        scale = np.max(np.abs(ref.values))
        np.testing.assert_allclose(
            lap.values[mask] / scale, ref.values[mask] / scale, atol=1e-4
        )


if __name__ == "__main__":
    unittest.main()
