"""Hermite function tables: one recurrence gives every degree."""

import unittest

import numpy as np
from numpy.polynomial.hermite import hermgauss

from dunklkit import families


def _hermite_reference(n, x):
    """h_n alone, by the recurrence run from degree 0 for each degree."""
    h_prev = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if n == 0:
        return h_prev
    h = np.sqrt(2.0) * x * h_prev
    for m in range(2, n + 1):
        h, h_prev = np.sqrt(2.0 / m) * x * h - np.sqrt((m - 1.0) / m) * h_prev, h
    return h


class TestHermiteFunctions(unittest.TestCase):
    def test_orthonormal(self):
        # Gauss-Hermite with 40 nodes is exact for h_m h_n e^{x^2}, m, n <= 24
        x, w = hermgauss(40)
        h = families.hermite_functions(24, x)
        gram = (h * (w * np.exp(x**2))) @ h.T
        np.testing.assert_allclose(gram, np.eye(25), rtol=0, atol=1e-12)

    def test_table_equals_single_degrees(self):
        x = np.linspace(-6.0, 6.0, 37)
        h = families.hermite_functions(24, x)
        for n in range(25):
            np.testing.assert_array_equal(h[n], _hermite_reference(n, x))

    def test_random_band_limited_sums_single_degrees(self):
        x = np.linspace(-8.0, 8.0, 101)
        for seed in range(5):
            got = families.random_band_limited(x, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            degrees = rng.integers(0, 25, size=12)
            coeffs = rng.standard_normal(12)
            want = np.zeros_like(x)
            for deg, c in zip(degrees, coeffs):
                want += c * _hermite_reference(int(deg), x)
            np.testing.assert_array_equal(got, want)


if __name__ == "__main__":
    unittest.main()
