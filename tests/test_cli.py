"""Command line exit codes, output files, and curve extraction."""

import json
import os
import tempfile
import unittest
from pathlib import Path

import numpy as np
import yaml
from click.testing import CliRunner

from dunklkit.cli import main
from dunklkit.grids import SampledFunction, build_grid
from dunklkit.reflection import RootSystem

FAST_DOC = {
    "group": {"kind": "z2_product", "multiplicities": [0.5]},
    "grid": {"R": 10.0, "N": 96},
    "potential": {"preset": "soft_coulomb", "params": {"a": 1.0}},
    "suites": ["trotter_order", "smoothing"],
    "seed": 3,
}


class TestCli(unittest.TestCase):
    def setUp(self):
        self.runner = CliRunner()
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def _config(self, doc, name="run.yaml"):
        path = os.path.join(self.tmp, name)
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        return path

    def test_run_pass(self):
        cfg = self._config(FAST_DOC)
        out = os.path.join(self.tmp, "out")
        res = self.runner.invoke(main, ["run", cfg, "--out", out])
        self.assertEqual(res.exit_code, 0, res.output)
        self.assertIn("pass  trotter_order", res.output)
        self.assertTrue((Path(out) / "summary.json").exists())
        self.assertTrue((Path(out) / "smoothing.csv").exists())

    def test_run_reports_failure(self):
        # N = 32 starves the transform: the roundtrip gate cannot hold
        doc = dict(FAST_DOC, grid={"R": 10.0, "N": 32}, suites=["plancherel"])
        cfg = self._config(doc)
        out = os.path.join(self.tmp, "out")
        res = self.runner.invoke(main, ["run", cfg, "--out", out])
        self.assertEqual(res.exit_code, 1, res.output)
        self.assertIn("FAIL", res.output)

    def test_missing_config(self):
        res = self.runner.invoke(main, ["run", os.path.join(self.tmp, "nope.yaml")])
        self.assertEqual(res.exit_code, 2)

    def test_invalid_config(self):
        cfg = self._config({"group": {"kind": "bogus"}})
        res = self.runner.invoke(main, ["run", cfg])
        self.assertEqual(res.exit_code, 2)
        self.assertIn("config error", res.output)

    def test_other_group_kind_is_a_config_error(self):
        # every table is built for the sign-product group alone, so another
        # kind is refused before any suite runs or any output is written
        cfg = self._config(dict(FAST_DOC, group={"kind": "dihedral", "m": 3, "k_even": 0.5}))
        out = os.path.join(self.tmp, "out_dihedral")
        res = self.runner.invoke(main, ["run", cfg, "--out", out])
        self.assertEqual(res.exit_code, 2, res.output)
        self.assertIn("config error", res.output)
        self.assertIn("z2_product", res.output)
        self.assertFalse(os.path.exists(out))

    def test_bad_preset_parameter_is_a_config_error(self):
        # refused before the first suite: no traceback, no summary.json
        for params in ({"a": -1.0}, {"b": 2.0}, {"a": "x"}):
            with self.subTest(params=params):
                potential = {"preset": "soft_coulomb", "params": params}
                cfg = self._config(dict(FAST_DOC, potential=potential))
                out = os.path.join(self.tmp, "out_preset")
                res = self.runner.invoke(main, ["run", cfg, "--out", out])
                self.assertEqual(res.exit_code, 2, res.output)
                self.assertIn("config error", res.output)
                self.assertFalse((Path(out) / "summary.json").exists())

    def test_bad_sweep_or_multiplicity_is_a_config_error(self):
        # these ended in a traceback inside the heat suite or load_config
        # (exit 1, no summary.json), or ran beyond the tested Bessel orders
        docs = {
            "negative time": dict(FAST_DOC, sweeps={"t_list": [-0.1]}),
            "nan time": dict(FAST_DOC, sweeps={"t_list": [float("nan")]}),
            "scalar t_list": dict(FAST_DOC, sweeps={"t_list": 0.1}),
            "kappa above KAPPA_MAX": dict(FAST_DOC, group={"kind": "z2_product", "multiplicities": [12.0]}),
            "kappa_list entry inf": dict(FAST_DOC, sweeps={"kappa_list": [float("inf")]}),
            # a rank-three scene's kernel tables take GiBs
            "rank three": dict(FAST_DOC, group={"kind": "z2_product", "multiplicities": [0.5] * 3}),
            # an empty t_list ended in a traceback, an empty kappa_list
            # dropped two plancherel checks and passed
            "empty t_list": dict(FAST_DOC, sweeps={"t_list": []}),
            "empty kappa_list": dict(FAST_DOC, sweeps={"kappa_list": []}),
            # a misspelt key ran on the defaults
            "misspelt section": dict(FAST_DOC, potentail={"preset": "zero"}),
            "misspelt sweep": dict(FAST_DOC, sweeps={"t_lst": [1.0]}),
            "unknown grid key": dict(FAST_DOC, grid={"N": 32, "n": 8}),
            # the preset and its parameters were dropped unchecked
            "csv beside preset": dict(FAST_DOC, potential={"csv": "x.csv", "preset": "bogus",
                                                           "params": {"a": -1}}),
        }
        for name, doc in docs.items():
            with self.subTest(name):
                cfg = self._config(doc)
                out = os.path.join(self.tmp, "out_sweep")
                res = self.runner.invoke(main, ["run", cfg, "--out", out])
                self.assertEqual(res.exit_code, 2, res.output)
                self.assertIn("config error", res.output)
                self.assertFalse(os.path.exists(out))

    def test_bad_csv_potential_is_a_config_error(self):
        # a missing file, samples of another grid, unparsable rows and
        # columns beyond x1, mu_weight, value are refused before the first
        # suite runs and before the output directory is made; a value_imag
        # column was dropped with only a ComplexWarning
        other = build_grid(RootSystem.z2_product([0.5]), 10.0, 24)
        mismatched = os.path.join(self.tmp, "other_grid.csv")
        SampledFunction(other, np.ones(len(other))).to_csv(mismatched)
        garbled = os.path.join(self.tmp, "garbled.csv")
        with open(garbled, "w") as fh:
            fh.write("x1,mu_weight,value\n" + "a,b,c\n" * FAST_DOC["grid"]["N"])
        grid = build_grid(RootSystem.z2_product([0.5]), 10.0, FAST_DOC["grid"]["N"])
        rows = [f"{x:.12e},{m:.12e},1.0,0.5\n" for (x,), m in zip(grid.nodes, grid.mu_weights)]
        paths = [os.path.join(self.tmp, "missing.csv"), mismatched, garbled]
        for name, header in (("imaginary", "x1,mu_weight,value,value_imag\n"), ("wide", "x1,mu_weight,value\n")):
            paths.append(os.path.join(self.tmp, f"{name}.csv"))
            with open(paths[-1], "w") as fh:
                fh.writelines([header, *rows])
        for path in paths:
            with self.subTest(csv=os.path.basename(path)):
                cfg = self._config(dict(FAST_DOC, potential={"csv": path}))
                out = os.path.join(self.tmp, "out_csv")
                res = self.runner.invoke(main, ["run", cfg, "--out", out])
                self.assertEqual(res.exit_code, 2, res.output)
                self.assertIn("config error", res.output)
                self.assertFalse(os.path.exists(out))

    def test_capability_failure(self):
        # a refused suite is recorded and the run goes on: summary.json is
        # written, the other suites keep their results, and the exit code is 3
        rank_two = {"kind": "z2_product", "multiplicities": [0.5, 1.0]}
        rank_one = {"kind": "z2_product", "multiplicities": [0.5]}
        grid, narrow, wide = {"R": 6.0, "N": 24}, {"R": 1.0e-3, "N": 24}, {"R": 40.0, "N": 24}
        cases = (
            (rank_two, grid, ["plancherel", "domination"], "rank-one"),
            # a grid so narrow that no free mode clears the resolution floor
            (rank_one, narrow, ["trotter_order"], "spectral cap"),
            # nodes past the radius where the t = 0.4 heat kernel underflows to 0
            (rank_one, wide, ["translation_convolution"], "past node radius 34.5"),
        )
        for group, grid, suites, reason in cases:
            with self.subTest(group=group["kind"], grid=grid, suites=suites):
                doc = {"group": group, "grid": grid, "suites": suites}
                cfg = self._config(doc)
                out = os.path.join(self.tmp, "out_" + "_".join(suites))
                res = self.runner.invoke(main, ["run", cfg, "--out", out])
                self.assertEqual(res.exit_code, 3, res.output)
                self.assertIn("refused", res.output)
                self.assertIn(reason, res.output)
                summary = json.loads((Path(out) / "summary.json").read_text())
                self.assertEqual(summary["suite_order"], suites)
                self.assertFalse(summary["overall_pass"])
                refused = summary["suites"][suites[-1]]
                self.assertFalse(refused["pass"])
                self.assertIn(reason, refused["refused"])
                self.assertFalse((Path(out) / f"{suites[-1]}.csv").exists())
                if len(suites) > 1:
                    ran = summary["suites"][suites[0]]
                    self.assertNotIn("refused", ran)
                    self.assertIn("hard_checks", ran)
                    self.assertTrue((Path(out) / f"{suites[0]}.csv").exists())

    def test_seed_override_and_determinism(self):
        doc = dict(FAST_DOC, suites=["trotter_order"])
        cfg = self._config(doc)
        outs = [os.path.join(self.tmp, d) for d in ("a", "b")]
        for out in outs:
            res = self.runner.invoke(main, ["run", cfg, "--out", out, "--seed", "11"])
            self.assertEqual(res.exit_code, 0, res.output)
        s = [json.loads((Path(o) / "summary.json").read_text()) for o in outs]
        self.assertEqual(s[0], s[1])
        self.assertEqual(s[0]["seed"], 11)

    def test_flags_accepted(self):
        doc = dict(FAST_DOC, suites=["smoothing"])
        cfg = self._config(doc)
        out = os.path.join(self.tmp, "out")
        res = self.runner.invoke(
            main, ["run", cfg, "--out", out, "--threads", "1", "--strict"]
        )
        self.assertEqual(res.exit_code, 0, res.output)
        summary = json.loads((Path(out) / "summary.json").read_text())
        self.assertTrue(summary["strict"])

    def test_list_suites(self):
        res = self.runner.invoke(main, ["list-suites"])
        self.assertEqual(res.exit_code, 0)
        self.assertIn("plancherel", res.output)
        self.assertIn("19 suites", res.output)

    def test_plotdata(self):
        doc = dict(FAST_DOC, suites=["trotter_order"])
        cfg = self._config(doc)
        out = os.path.join(self.tmp, "out")
        self.runner.invoke(main, ["run", cfg, "--out", out])

        res = self.runner.invoke(main, ["plotdata", out, "trotter_error_vs_n"])
        self.assertEqual(res.exit_code, 0, res.output)
        lines = res.output.strip().splitlines()
        self.assertEqual(lines[0], "x,y")
        self.assertGreater(len(lines), 1)
        for line in lines[1:]:
            x, y = line.split(",")
            float(x), float(y)

        res = self.runner.invoke(main, ["plotdata", out, "bogus_curve"])
        self.assertEqual(res.exit_code, 2)
        res = self.runner.invoke(
            main, ["plotdata", os.path.join(self.tmp, "nowhere"), "trotter_error_vs_n"]
        )
        self.assertEqual(res.exit_code, 2)


if __name__ == "__main__":
    unittest.main()
