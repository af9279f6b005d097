"""Suite registry and the batch runner's file outputs."""

import json
import math
import os
import tempfile
import tracemalloc
import unittest
from pathlib import Path
from unittest import mock

import numpy as np

from dunklkit import schrodinger, suites
from dunklkit.config import load_config
from dunklkit.suites import REGISTRY, Checks, Scene, run_suites

import yaml

FAST_DOC = {
    "group": {"kind": "z2_product", "multiplicities": [0.5]},
    "grid": {"R": 10.0, "N": 96},
    "potential": {"preset": "soft_coulomb", "params": {"a": 1.0}},
    "suites": ["trotter_order", "smoothing"],
    "seed": 5,
}


def _load(tmp, doc):
    path = os.path.join(tmp, "run.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return load_config(path, known_suites=set(REGISTRY))


class TestRegistry(unittest.TestCase):
    def test_size_and_metadata(self):
        self.assertGreaterEqual(len(REGISTRY), 12)
        for name, defn in REGISTRY.items():
            self.assertEqual(name, defn.name)
            self.assertTrue(defn.description)
            self.assertTrue(defn.anchor)
            self.assertTrue(callable(defn.fn))


class TestChecks(unittest.TestCase):
    def test_repeated_calls_keep_the_worst(self):
        ck = Checks()
        for v in (0.2, 0.7, 0.1):
            ck.at_most("up", v, 1.0)
            ck.at_least("down", v, 0.0, hard=False)
        self.assertEqual(ck.values["up"], 0.7)
        self.assertEqual(ck.values["down"], 0.1)
        self.assertEqual(ck.bounds, {"up": ["<=", 1.0], "down": [">=", 0.0]})
        self.assertEqual(ck.hard, {"up": True})
        self.assertEqual(ck.soft, {"down": True})
        ck.at_most("up", 1.5, 1.0)
        self.assertEqual(ck.values["up"], 1.5)
        self.assertFalse(ck.hard["up"])

    def test_nan_sample_sticks_and_fails(self):
        ck = Checks()
        for v in (1e-12, float("nan"), 0.0, 1e-13):
            ck.at_most("gap", v, 1e-10)
            ck.at_least("slack", -v, -1e-10)
        for name in ("gap", "slack"):
            self.assertTrue(math.isnan(ck.values[name]), name)
            self.assertFalse(ck.hard[name], name)

    def test_bound_fixed_per_name(self):
        ck = Checks()
        ck.at_most("gap", 0.1, 1.0)
        with self.assertRaises(ValueError):
            ck.at_most("gap", 0.1, 2.0)


class TestDomination(unittest.TestCase):
    def test_nan_kernel_fails_the_sample_checks(self):
        with tempfile.TemporaryDirectory() as tmp:
            scene = Scene(_load(tmp, FAST_DOC))
        n = len(scene.kernel_grid)
        nan_kernel = lambda ed, t: np.full((n, n), np.nan)
        with mock.patch.object(Scene, "kernel_resolved", lambda self, *a, **k: None):
            with mock.patch.object(suites, "schrodinger_kernel", nan_kernel):
                ck, _ = REGISTRY["domination"].fn(scene, np.random.default_rng(0))
        for name in ("kernel_nonnegative", "kernel_below_free"):
            self.assertFalse(ck.hard[name], name)
            self.assertTrue(math.isnan(ck.values[name]), name)


class TestRunner(unittest.TestCase):
    def test_outputs_and_determinism(self):
        """Two runs in one process write byte-identical files.  summary.json is
        byte-stable only for one BLAS build and thread count: another thread
        count moves some values at ~1e-9 relative, so committed reports are
        not compared byte for byte across hosts."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, FAST_DOC)
            out1 = Path(tmp) / "a"
            out2 = Path(tmp) / "b"
            s1 = run_suites(cfg, out1, cfg.seed)
            s2 = run_suites(cfg, out2, cfg.seed)

            self.assertTrue(s1["overall_pass"])
            self.assertEqual(s1["suite_order"], ["trotter_order", "smoothing"])
            for name in FAST_DOC["suites"]:
                self.assertTrue((out1 / f"{name}.csv").exists())
                block = s1["suites"][name]
                self.assertIn("hard_checks", block)
                self.assertTrue(block["pass"])
            self.assertIn("trotter_error_vs_n", s1["curves"])

            # byte-identical reruns, summary and curve files alike
            self.assertEqual(
                (out1 / "summary.json").read_bytes(),
                (out2 / "summary.json").read_bytes(),
            )
            for name in FAST_DOC["suites"]:
                self.assertEqual(
                    (out1 / f"{name}.csv").read_bytes(),
                    (out2 / f"{name}.csv").read_bytes(),
                )

            persisted = json.loads((out1 / "summary.json").read_text())
            self.assertEqual(persisted["seed"], 5)
            self.assertEqual(persisted["config"]["grid"]["N"], 96)

    def test_written_verdicts_match_written_bounds(self):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, FAST_DOC)
            run_suites(cfg, Path(tmp) / "run", cfg.seed)
            summary = json.loads((Path(tmp) / "run" / "summary.json").read_text())
        n_bounds = 0
        for block in summary["suites"].values():
            verdicts = {**block["hard_checks"], **block["soft_checks"]}
            for name, (op, bound) in block["bounds"].items():
                self.assertIn(name, verdicts)
                value = block["values"][name]
                held = value <= bound if op == "<=" else value >= bound
                self.assertEqual(verdicts[name], held, name)
                n_bounds += 1
        self.assertGreater(n_bounds, 0)

    def test_seed_changes_draws(self):
        doc = dict(FAST_DOC, suites=["riesz_l2"], grid={"R": 10.0, "N": 48})
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, doc)
            s1 = run_suites(cfg, Path(tmp) / "a", 1)
            s2 = run_suites(cfg, Path(tmp) / "b", 2)
            v1 = s1["suites"]["riesz_l2"]["values"]
            v2 = s2["suites"]["riesz_l2"]["values"]
            self.assertNotEqual(v1, v2)


class TestReflectionGeometry(unittest.TestCase):
    def test_ball_brackets_hold_at_every_seed(self):
        # the exact volumes and the closed-form bracket hold at seeds whose
        # draws fell outside an earlier random calibration (1404-1406)
        doc = dict(FAST_DOC, group={"kind": "z2_product", "multiplicities": [0.5, 1.0]},
                   grid={"R": 6.0, "N": 24}, suites=["reflection_geometry"])
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, doc)
            for seed in (7, 1401, 1402, 1403, 1404, 1405, 1406):
                block = run_suites(cfg, Path(tmp) / str(seed), seed)["suites"]["reflection_geometry"]
                self.assertTrue(block["hard_checks"]["ball_bracket"], seed)
                self.assertTrue(block["hard_checks"]["ball_cube_bracket"], seed)
            run_suites(cfg, Path(tmp) / "again", 1406)
            self.assertEqual(
                (Path(tmp) / "1406" / "summary.json").read_bytes(),
                (Path(tmp) / "again" / "summary.json").read_bytes(),
            )

    def test_ball_bracket_at_equality_kappa0(self):
        # at kappa = 0 in rank one every ball is an interval with mu = C q
        doc = dict(FAST_DOC, group={"kind": "z2_product", "multiplicities": [0.0]},
                   suites=["reflection_geometry"])
        with tempfile.TemporaryDirectory() as tmp:
            block = run_suites(_load(tmp, doc), Path(tmp), 7)["suites"]["reflection_geometry"]
        self.assertTrue(block["hard_checks"]["ball_bracket"])
        self.assertAlmostEqual(block["values"]["ball_bracket"], 1.0, places=12)


class TestMemoryBudget(unittest.TestCase):
    # tracemalloc peak of one suite on a fresh rank-two scene (the kernel grid
    # is (6, 32)^2, 1,024 nodes), in 1024^2 float64 tables of 8 MiB: measured
    # 0.13, 2.39 and 2.01 when the bounds were set, each at least 25 % above
    # that; 0.13, 1.91 and 0.76 since the smoothing kernel holds its cone
    # columns, 0.80 for spectral_positivity since the operator is held as its
    # per-axis factors (the 576-node scene grid's table is never formed), 0.11
    # since it assembles one operator and builds no kernel-grid kernel, and
    # 0.114 since that operator is the resolved-mode one
    BUDGET = {"heat_kernel": 0.25, "spectral_positivity": 0.15, "smoothing": 2.6}

    def test_rank_two_suites_hold_few_tables(self):
        doc = dict(FAST_DOC, group={"kind": "z2_product", "multiplicities": [0.5, 1.0]},
                   grid={"R": 6.0, "N": 24}, suites=list(self.BUDGET))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, doc)
        caches = (schrodinger._kron_modes, schrodinger._axis_free_modes)
        for name, budget in self.BUDGET.items():
            for cached in caches:
                cached.cache_clear()
            scene = Scene(cfg)
            tracemalloc.start()
            try:
                REGISTRY[name].fn(scene, np.random.default_rng(7))
                peak = tracemalloc.get_traced_memory()[1] / (1024 * 1024 * 8)
            finally:
                tracemalloc.stop()
            self.assertLess(peak, budget, name)


class TestParityBlocks(unittest.TestCase):
    def test_rank_two_solves_are_quarter_size(self):
        # the largest matrices these suites meet are the Galerkin matrices of
        # the scene grid's 576 nodes and of the kernel grid's 448 modes
        doc = dict(FAST_DOC, group={"kind": "z2_product", "multiplicities": [0.5, 1.0]},
                   grid={"R": 6.0, "N": 24})
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, doc)
        for name in ("spectral_positivity", "riesz_l2"):
            for cached in (schrodinger._kron_modes, schrodinger._axis_free_modes):
                cached.cache_clear()
            scene = Scene(cfg)
            with (  # numpy.linalg.eigh is the one kato calls
                mock.patch("dunklkit.schrodinger.eigh", wraps=np.linalg.eigh) as galerkin,
                mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as lanczos,
            ):
                REGISTRY[name].fn(scene, np.random.default_rng(7))
            sizes = [len(c.args[0]) for m in (galerkin, lanczos) for c in m.call_args_list]
            self.assertTrue(sizes, name)
            self.assertLessEqual(max(sizes), len(scene.grid) // 4, name)


class TestQuadraticForm(unittest.TestCase):
    def test_rank_two_records_the_stencil_gap_unchecked(self):
        # rank two checks no identity: the resolved operator's distance from
        # the stencil sum_j ||T_j f||^2 (3.59e-2 on (6, 24)^2) is a value with
        # no bound, and the spectrum's sign is the one hard check
        doc = dict(FAST_DOC, group={"kind": "z2_product", "multiplicities": [0.5, 1.0]},
                   grid={"R": 6.0, "N": 24})
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, doc)
        with (mock.patch.object(schrodinger, "assemble_L", wraps=schrodinger.assemble_L) as assemble,
              mock.patch.object(schrodinger, "eig", wraps=schrodinger.eig) as solve):
            ck, _ = REGISTRY["spectral_positivity"].fn(Scene(cfg), np.random.default_rng(7))
        self.assertEqual((assemble.call_count, solve.call_count), (1, 1))
        self.assertNotIn("quadratic_form_identity", {**ck.values, **ck.bounds})
        self.assertAlmostEqual(ck.values["quadratic_form_stencil_gap"], 3.59e-2, delta=1e-3)
        self.assertNotIn("quadratic_form_stencil_gap", {**ck.hard, **ck.soft, **ck.bounds})
        self.assertEqual(list(ck.hard), ["spectrum_nonnegative"])

    def test_negative_galerkin_spectrum_fails(self):
        # on a grid far too coarse for its width the resolved operator the
        # other suites use has a negative eigenvalue, and the check reads it
        doc = dict(FAST_DOC, grid={"R": 40.0, "N": 24})
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _load(tmp, doc)
        ck, _ = REGISTRY["spectral_positivity"].fn(Scene(cfg), np.random.default_rng(7))
        self.assertFalse(ck.hard["spectrum_nonnegative"])
        self.assertAlmostEqual(ck.values["spectrum_nonnegative"], -14.9, delta=0.05)


class TestCurveFiles(unittest.TestCase):
    def test_csv_layout(self):
        with tempfile.TemporaryDirectory() as tmp:
            doc = dict(FAST_DOC, suites=["trotter_order"])
            cfg = _load(tmp, doc)
            out = Path(tmp) / "run"
            run_suites(cfg, out, 0)
            lines = (out / "trotter_order.csv").read_text().splitlines()
            self.assertEqual(lines[0], "curve,x,y")
            for line in lines[1:]:
                name, x, y = line.split(",")
                self.assertEqual(name, "trotter_error_vs_n")
                float(x), float(y)


if __name__ == "__main__":
    unittest.main()
