"""Smooth rapidly decaying test-function families for verification sweeps."""

import numpy as np


def hermite_functions(n: int, x) -> np.ndarray:
    """Orthonormal Hermite functions h_0 ... h_n on a new first axis; one
    stable weighted three-term recurrence."""
    x = np.asarray(x, dtype=float)
    h = np.empty((n + 1,) + x.shape)
    h[0] = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if n > 0:
        h[1] = np.sqrt(2.0) * x * h[0]
    for m in range(2, n + 1):
        h[m] = np.sqrt(2.0 / m) * x * h[m - 1] - np.sqrt((m - 1.0) / m) * h[m - 2]
    return h


def random_band_limited(
    x, rng: np.random.Generator, n_terms: int = 12, max_degree: int = 24
) -> np.ndarray:
    """Random combination of low-order Hermite functions; unit-scale amplitude."""
    h = hermite_functions(max_degree, x)
    degrees = rng.integers(0, max_degree + 1, size=n_terms)
    coeffs = rng.standard_normal(n_terms)
    out = np.zeros_like(h[0])
    for deg, c in zip(degrees, coeffs):
        out += c * h[deg]
    return out


def gaussian(x, sigma: float = 1.0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x / sigma) ** 2)


def band_limited_family(x, n_functions: int, seed: int) -> list:
    """Deterministic family mixing random combinations with scaled bumps."""
    rng = np.random.default_rng(seed)
    fam = []
    for i in range(n_functions):
        if i % 5 == 4:
            sig = 0.6 + 0.25 * (i % 7)
            fam.append(gaussian(x, sig) * (1.0 if i % 2 else x))
        else:
            fam.append(random_band_limited(x, rng))
    return fam
