"""Acceptance gate: the twelve release criteria, one verdict line each.

Each test computes its quantities from the library, prints a single
"[criterion NN] PASS/FAIL" line with the measured values, then asserts.
Shared heavy objects (grids, spectral matrices, eigendecompositions) are
cached at module level so the whole gate stays inside the desk-scale budget.
"""

import math
import time
import unittest

import numpy as np

from dunklkit import families, kato
from dunklkit.grids import SampledFunction, build_grid
from dunklkit.heat import (
    gaussian_bound_report,
    heat_kernel_matrix,
)
from dunklkit.intertwine import (
    dunkl_kernel,
    kernel_bessel_1d,
    kernel_series_1d,
    rank_one_measure,
)
from dunklkit.operators import dunkl_derivative, spectral_laplacian
from dunklkit.reflection import RootSystem, gamma_k
from dunklkit.schrodinger import (
    inv_sqrt_apply,
    inv_sqrt_subordination,
    potential_function,
    potential_preset,
    resolved_calculus,
    riesz_matrix,
    scaling_identity_gap,
    schrodinger_kernel,
    semigroup_apply,
    semigroup_trotter,
    weak_type_report,
    weighted_estimate_report,
)
from dunklkit.transform import (
    build_spectral_matrix,
    dunkl_transform,
    inverse_transform,
    parseval_defect,
)

_SM = {}
_ED = {}
_GRID = {}


def _sm(kappa: float, R: float = 10.0, n: int = 128):
    key = (kappa, R, n)
    if key not in _SM:
        rs = RootSystem.z2_product([kappa])
        _SM[key] = build_spectral_matrix(build_grid(rs, R, n))
    return _SM[key]


def _kgrid(kappa: float, R: float = 14.0, n: int = 256):
    key = (kappa, R, n)
    if key not in _GRID:
        _GRID[key] = build_grid(RootSystem.z2_product([kappa]), R, n)
    return _GRID[key]


def _resolved(kappa: float, preset: str = None, **params):
    key = (kappa, preset, tuple(sorted(params.items())))
    if key not in _ED:
        grid = _kgrid(kappa)
        pot = potential_preset(grid, preset, **params) if preset else None
        _ED[key] = resolved_calculus(grid, pot)
    return _ED[key]


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


class TestAcceptance(unittest.TestCase):
    def test_criterion_01_plancherel_inversion(self):
        t0 = time.time()
        worst_round, worst_pars = 0.0, 0.0
        for kap in (0.0, 0.5, 1.5):
            sm = _sm(kap)
            xs = sm.grid.nodes[:, 0]
            fam = families.band_limited_family(xs, 20, seed=11)
            prev = None
            for vals in fam:
                f = SampledFunction(sm.grid, vals)
                back = inverse_transform(sm, dunkl_transform(sm, f))
                rel = SampledFunction(sm.grid, back.values - f.values).norm_l2()
                worst_round = max(worst_round, rel / f.norm_l2())
                if prev is not None:
                    worst_pars = max(worst_pars, parseval_defect(sm, f, prev))
                prev = f
        elapsed = time.time() - t0
        ok = worst_round < 1e-6 and worst_pars < 1e-6 and elapsed < 10.0
        self.assertTrue(
            _verdict(
                1,
                ok,
                f"roundtrip {worst_round:.3e} parseval {worst_pars:.3e} "
                f"(< 1e-6), {elapsed:.2f}s (< 10s)",
            )
        )

    def test_criterion_02_kernel_dual(self):
        ss = np.linspace(-20.0, 20.0, 161)
        worst = 0.0
        for kap in (0.3, 0.5, 1.0, 1.5):
            series = kernel_series_1d(ss, kap)
            bessel = kernel_bessel_1d(ss, kap)
            nd, wt = rank_one_measure(kap, 1.0, 96)
            quad = np.array([float(wt @ np.exp(nd * s)) for s in ss])
            rel = np.maximum(np.abs(series), 1.0)
            worst = max(worst, float(np.max(np.abs(series - quad) / rel)))
            worst = max(worst, float(np.max(np.abs(series - bessel) / rel)))
        rs = RootSystem.z2_product([0.7])
        at_zero = dunkl_kernel(rs, [0.0], [2.3])
        ok = worst <= 1e-8 and at_zero == 1.0
        self.assertTrue(
            _verdict(
                2,
                ok,
                f"series/quadrature gap {worst:.3e} (<= 1e-8), "
                f"E(0, y) = {at_zero} (exact)",
            )
        )

    def test_criterion_03_kernel_eigenfunction(self):
        worst = 0.0
        for kap in (0.5, 1.5):
            grid = build_grid(RootSystem.z2_product([kap]), 4.0, 160)
            xs = grid.nodes[:, 0]
            interior = grid.interior_mask(0.8)
            for y in (0.5, 1.0, 2.0):
                e = SampledFunction(grid, kernel_bessel_1d(xs * y, kap))
                te = dunkl_derivative(grid, e)
                worst = max(
                    worst, float(np.max(np.abs(te.values - y * e.values)[interior]))
                )
        ok = worst < 1e-4
        self.assertTrue(
            _verdict(3, ok, f"eigenfunction residual sup {worst:.3e} (< 1e-4)")
        )

    def test_criterion_04_heat_semigroup(self):
        grid = _kgrid(0.5)
        mask = grid.interior_mask(0.45)
        worst_mass, worst_semi = 0.0, 0.0
        K = {t: heat_kernel_matrix(grid, t) for t in (0.1, 0.4, 0.5, 0.9, 1.0)}
        for t in (0.1, 0.5, 1.0):
            mass = K[t] @ grid.mu_weights
            worst_mass = max(worst_mass, float(np.max(np.abs(mass[mask] - 1.0))))
        for ta, tb in ((0.1, 0.4), (0.4, 0.5)):
            comp = (K[ta] * grid.mu_weights[None, :]) @ K[tb]
            gap = np.abs(comp - K[ta + tb])[np.ix_(mask, mask)] / np.max(K[ta + tb])
            worst_semi = max(worst_semi, float(np.max(gap)))

        rs = RootSystem.z2_product([0.5])
        fits_ok, drift = True, 0.0
        rep1 = gaussian_bound_report(rs, (0.25, 1.0), n_samples=40, seed=5)
        rep2 = gaussian_bound_report(rs, (0.25, 1.0), n_samples=80, seed=5)
        for form in rep1["fits"]:
            f1, f2 = rep1["fits"][form], rep2["fits"][form]
            fits_ok &= bool(np.isfinite(f1["C"]) and f1["c"] > 0)
            drift = max(drift, abs(f2["c"] - f1["c"]) / f1["c"])

        sm0 = _sm(0.0)
        xs = sm0.grid.nodes[:, 0]
        worst_classical = 0.0
        for t in (0.1, 1.0):
            K0 = heat_kernel_matrix(sm0.grid, t)
            ref = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / (4.0 * t)) / math.sqrt(
                4.0 * math.pi * t
            )
            worst_classical = max(worst_classical, float(np.max(np.abs(K0 - ref))))

        ok = (
            worst_mass <= 1e-6
            and worst_semi <= 1e-6
            and fits_ok
            and drift <= 0.10
            and worst_classical <= 1e-8
        )
        self.assertTrue(
            _verdict(
                4,
                ok,
                f"mass {worst_mass:.3e} semigroup {worst_semi:.3e} (<= 1e-6), "
                f"fit drift {drift:.3f} (<= 0.10), classical {worst_classical:.3e} (<= 1e-8)",
            )
        )

    def test_criterion_05_domination(self):
        grid = _kgrid(0.5)
        rng = np.random.default_rng(17)
        presets = [
            ("constant", {"c": 1.0}),
            ("soft_coulomb", {"a": 1.0}),
            ("bump", {"h": 1.0, "w": 6.0}),
        ]
        worst_neg, worst_over, worst_vec = 0.0, 0.0, 0.0
        for t in (0.1, 0.5, 1.0):
            K = heat_kernel_matrix(grid, t)
            for name, params in presets:
                W = schrodinger_kernel(_resolved(0.5, name, **params), t)
                worst_neg = max(worst_neg, max(0.0, -float(np.min(W))))
                worst_over = max(worst_over, max(0.0, float(np.max(W - K))))
                u = families.random_band_limited(
                    grid.nodes[:, 0], rng, n_terms=6, max_degree=12
                ) * np.exp(-grid.nodes[:, 0] ** 2 / 8.0)
                Wu = W @ (grid.mu_weights * u)
                Ku = K @ (grid.mu_weights * np.abs(u))
                worst_vec = max(worst_vec, float(np.max(np.abs(Wu) - Ku)))
        ok = worst_neg <= 1e-6 and worst_over <= 1e-6 and worst_vec <= 1e-8
        self.assertTrue(
            _verdict(
                5,
                ok,
                f"negativity {worst_neg:.3e} overshoot {worst_over:.3e} (<= 1e-6), "
                f"vector gap {worst_vec:.3e} (<= 1e-8)",
            )
        )

    def test_criterion_06_trotter_order(self):
        sm = _sm(0.5)
        grid = sm.grid
        pot = potential_preset(grid, "soft_coulomb", a=1.0)
        ed = resolved_calculus(grid, pot)
        xs = grid.nodes[:, 0]
        f = SampledFunction(grid, np.exp(-(xs**2) / 2.0) * (1.0 + 0.3 * xs))
        ref = semigroup_apply(ed, 1.0, f)
        errs = []
        for n in (8, 16, 32, 64):
            got = semigroup_trotter(sm, pot, 1.0, n, f)
            errs.append(SampledFunction(grid, got.values - ref.values).norm_l2())
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        ok = all(1.6 <= r <= 2.4 for r in ratios)
        self.assertTrue(
            _verdict(
                6,
                ok,
                "halving ratios "
                + "/".join(f"{r:.3f}" for r in ratios)
                + " (within 2.0 +/- 20%)",
            )
        )

    def test_criterion_07_riesz_l2(self):
        worst_ratio, worst_sub = 0.0, 0.0
        rng = np.random.default_rng(23)
        for kap in (0.0, 0.5, 1.5):
            for preset in ("zero", "soft_coulomb"):
                params = {} if preset == "zero" else {"a": 1.0}
                ed = _resolved(kap, preset, **params)
                grid = ed.grid
                xs = grid.nodes[:, 0]
                R = riesz_matrix(ed, 0)
                for _ in range(50):
                    f = SampledFunction(
                        grid,
                        families.random_band_limited(xs, rng, n_terms=8, max_degree=16),
                    )
                    rf = SampledFunction(grid, R @ f.values)
                    worst_ratio = max(worst_ratio, rf.norm_l2() / f.norm_l2())
                g = SampledFunction(grid, np.exp(-(xs**2) / 2.0))
                direct = inv_sqrt_apply(ed, g)
                sub, _ = inv_sqrt_subordination(ed, g)
                gap = SampledFunction(
                    grid, direct.values - sub.values
                ).norm_l2() / direct.norm_l2()
                worst_sub = max(worst_sub, gap)
        ok = worst_ratio <= 1.0 + 1e-3 and worst_sub < 1e-4
        self.assertTrue(
            _verdict(
                7,
                ok,
                f"L2 ratio sup {worst_ratio:.6f} (<= 1.001), "
                f"subordination gap {worst_sub:.3e} (< 1e-4)",
            )
        )

    def test_criterion_08_weak_type(self):
        atoms = [(0.0, 1.0), (0.0, 0.5), (0.0, 0.35), (1.3, 1.0), (1.3, 0.5), (1.3, 0.35)]
        sups = {}
        for N in (256, 384):
            grid = build_grid(RootSystem.z2_product([0.5]), 10.0, N)
            ed = resolved_calculus(grid, potential_preset(grid, "soft_coulomb", a=1.0))
            sups[N] = weak_type_report(ed, atoms, axis=0)["sup_ratio"]
        drift = abs(sups[384] - sups[256]) / sups[256]
        ok = np.isfinite(sups[384]) and drift < 0.25
        self.assertTrue(
            _verdict(
                8,
                ok,
                f"sup ratio {sups[256]:.4f} -> {sups[384]:.4f}, "
                f"refinement drift {drift:.3f} (< 0.25)",
            )
        )

    def test_criterion_09_weighted_kernel(self):
        worst_spread, min_c = 0.0, np.inf
        for kap in (0.0, 1.0):
            rs1 = RootSystem.z2_product([kap])
            grid = build_grid(rs1, 10.0, 128)
            ed = resolved_calculus(grid, None)
            rep = weighted_estimate_report(ed, (0.25, 0.5, 1.0, 2.0, 4.0), (0.1, 0.3))
            for y in (0.1, 0.3):
                vals = [rep["normalized_lhs"][(y, t)] for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
                worst_spread = max(worst_spread, max(vals) / min(vals))
            for fit in rep["tail_fit"].values():
                min_c = min(min_c, fit["c"])
        gap = scaling_identity_gap(
            RootSystem.z2_product([0.5]),
            10.0,
            128,
            potential_function("soft_coulomb", a=1.0),
            4.0,
        )
        ok = worst_spread < 2.0 and min_c > 0.0 and gap < 1e-4
        self.assertTrue(
            _verdict(
                9,
                ok,
                f"normalized spread {worst_spread:.3f} (< 2), tail rate {min_c:.3f} (> 0), "
                f"scaling gap {gap:.3e} (< 1e-4)",
            )
        )

    def test_criterion_10_kato_classifier(self):
        rs = RootSystem.z2_product([0.5])
        cases = [
            (potential_function("constant", c=1.0), "Kato"),
            (potential_function("soft_coulomb", a=1.0), "Kato"),
            (potential_function("bump", h=1.0, w=4.0), "Kato"),
            (potential_function("inverse_power", beta=0.5), "Kato"),
            (potential_function("inverse_power", beta=1.5), "NotKato"),
        ]
        probes = (0.0, 0.5, 1.0, 2.0)
        refined = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
        verdicts_ok, stable = True, True
        for fn, expect in cases:
            v1 = kato.classify(rs, fn, probes).verdict
            v2 = kato.classify(rs, fn, refined).verdict
            verdicts_ok &= v1 == expect
            stable &= v1 == v2
        hm_gap = 0.0
        one = potential_function("constant", c=1.0)
        for t in (0.3, 1.0):
            hm_gap = max(hm_gap, abs(kato.heat_modulus(rs, one, t).value - t))
        ok = verdicts_ok and stable and hm_gap <= 1e-8
        self.assertTrue(
            _verdict(
                10,
                ok,
                f"verdicts {'correct' if verdicts_ok else 'WRONG'}, "
                f"probe-refinement {'stable' if stable else 'UNSTABLE'}, "
                f"constant heat modulus gap {hm_gap:.3e} (<= 1e-8)",
            )
        )

    def test_criterion_11_smoothing_norms(self):
        presets = [
            ("zero", {}),
            ("constant", {"c": 1.0}),
            ("soft_coulomb", {"a": 1.0}),
            ("inverse_power", {"beta": 0.5}),
            ("bump", {"h": 1.0, "w": 6.0}),
        ]
        finite, contract, interp_ok = True, 0.0, True
        sup_entries = []
        grid = _kgrid(0.5)
        for name, params in presets:
            pot = potential_preset(grid, name, **params)
            for t in (0.1, 1.0):
                rep = kato.smoothing_norms(grid, pot, t, [(2, 2)])
                finite &= all(np.isfinite(v) for v in rep.corner_norms.values())
                contract = max(contract, rep.corner_norms[("inf", "inf")])
                interp_ok &= rep.interpolated[(2, 2)] >= rep.l2_direct - 1e-10
                sup_entries.append((name, params, t, rep.corner_norms[(1, "inf")]))
        d, gam = 1, 0.5
        C_fit = max(v * t ** (d / 2.0 + gam) for (_, _, t, v) in sup_entries)
        power_ok = True
        for name, params, _, _ in sup_entries[::2]:
            pot = potential_preset(grid, name, **params)
            rep = kato.smoothing_norms(grid, pot, 0.5, [])
            bound = C_fit * 0.5 ** -(d / 2.0 + gam)
            power_ok &= rep.corner_norms[(1, "inf")] <= bound * (1 + 1e-9)
        ok = finite and contract <= 1.0 + 1e-6 and interp_ok and power_ok
        self.assertTrue(
            _verdict(
                11,
                ok,
                f"corners finite={finite}, row-mass excess {contract - 1.0:.3e} (<= 1e-6), "
                f"(2,2) >= direct L2: {interp_ok}, sup-norm power bound holds: {power_ok}",
            )
        )

    def test_criterion_12_classical_regression(self):
        sm = _sm(0.0)
        grid = sm.grid
        xs = grid.nodes[:, 0]
        ck_gap = abs(sm.ck - math.sqrt(2.0 * math.pi))

        g = SampledFunction(grid, np.exp(-(xs**2) / 2.0))
        self_gap = float(
            np.max(np.abs(dunkl_transform(sm, g).values - np.exp(-(xs**2) / 2.0)))
        )
        back = inverse_transform(sm, dunkl_transform(sm, g))
        round_gap = SampledFunction(grid, back.values - g.values).norm_l2() / g.norm_l2()

        heat_gap = 0.0
        for t in (0.1, 1.0):
            K0 = heat_kernel_matrix(grid, t)
            ref = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / (4.0 * t)) / math.sqrt(
                4.0 * math.pi * t
            )
            heat_gap = max(heat_gap, float(np.max(np.abs(K0 - ref))))

        ed0 = resolved_calculus(grid, None)
        R = riesz_matrix(ed0, 0)
        interior = grid.interior_mask(0.7)
        rng = np.random.default_rng(29)
        iso, square = 0.0, 0.0
        for _ in range(10):
            coef = rng.normal(size=6)
            h = SampledFunction(
                grid, sum(c * families.hermite_functions(n, xs)[n] for n, c in enumerate(coef))
            )
            f = spectral_laplacian(sm, h).values
            rf = R @ f
            iso = max(
                iso,
                math.sqrt(
                    float(np.sum(grid.mu_weights * rf**2))
                    / float(np.sum(grid.mu_weights * f**2))
                ),
            )
            sq = R @ rf + f
            square = max(square, float(np.max(np.abs(sq[interior])) / np.max(np.abs(f))))

        ok = (
            ck_gap <= 1e-8
            and self_gap <= 1e-8
            and round_gap < 1e-6
            and heat_gap <= 1e-8
            and iso <= 1.0 + 1e-3
            and square <= 1e-2
        )
        self.assertTrue(
            _verdict(
                12,
                ok,
                f"normalization {ck_gap:.1e}, self-transform {self_gap:.1e}, "
                f"roundtrip {round_gap:.1e}, heat {heat_gap:.1e}, "
                f"isometry {iso:.4f}, square-identity {square:.1e}",
            )
        )


if __name__ == "__main__":
    unittest.main()
