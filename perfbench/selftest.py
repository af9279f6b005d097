"""Tests of the benchmark itself: python3 -m pytest -q perfbench/selftest.py"""

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "group": {"kind": "z2_product", "multiplicities": [0.5]},
    "grid": {"R": 10.0, "N": 96},
    "potential": {"preset": "soft_coulomb", "params": {"a": 1.0}},
    "suites": ["kernel_dual", "trotter_order"],
}

# domination refuses d != 1 with a CapabilityError: the CLI exits 3 and
# writes no summary.json
ABORT = {
    "group": {"kind": "z2_product", "multiplicities": [0.5, 1.0]},
    "grid": {"R": 6.0, "N": 16},
    "suites": ["domination", "kernel_dual"],
}


class TestBenchmark(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.spec = bench.load_spec()

    def tearDown(self):
        self._tmp.cleanup()

    def _config(self, doc) -> Path:
        path = Path(self._tmp.name) / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    def _printed(self, result, section):
        """Round-trip through the printed line; every metric has name and unit."""
        printed = json.loads(json.dumps(result))
        self.assertEqual(set(printed), {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(printed["metrics"]), set(want))
        for name, m in printed["metrics"].items():
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertEqual(m["unit"], want[name])
            self.assertIsInstance(m["value"], (int, float))
        return printed

    def test_spec_is_consistent(self):
        e2e = self.spec["end_to_end"]
        names = [m["name"] for m in e2e + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(
            sorted(w["name"] for w in self.spec["workloads"]), sorted(bench.KNOWN_DEFECTS)
        )
        for w in self.spec["workloads"]:
            self.assertTrue((bench.BENCH_DIR / "workloads" / f"{w['name']}.yaml").is_file())
        bounds = {m["name"]: m["bound"] for m in e2e}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_smoke_tiny_config(self):
        cfg = self._config(TINY)
        out = self._printed(bench.measure("tiny", cfg, 5, 0.1, trace=False), "end_to_end")
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["metrics"]["hard_pass_frac"]["value"], 1.0)
        self.assertGreater(out["metrics"]["run_s"]["value"], 0.0)

        out = self._printed(bench.measure("tiny", cfg, 5, 0.1, trace=True), "per_layer")
        self.assertTrue(out["correct"])  # traced summary equals the untraced one
        self.assertEqual(out["attempted"], 2)
        m = out["metrics"]
        self.assertGreater(m["suites.trotter_order.s"]["value"], 0.0)
        self.assertGreater(m["grids.build_grid.calls"]["value"], 0)
        self.assertEqual(m["kato.classify.s"]["value"], 0.0)

    def test_abort_scores_every_suite_failed(self):
        cfg = self._config(ABORT)
        out = self._printed(bench.measure("abort", cfg, 5, 0.1, trace=False), "end_to_end")
        m = out["metrics"]
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])
        # fail fractions of 1.0
        self.assertEqual(m["suite_pass_frac"]["value"], 0.0)
        self.assertEqual(m["hard_pass_frac"]["value"], 0.0)
        self.assertEqual(m["soft_pass_frac"]["value"], 0.0)

    def test_exit_code_must_agree_with_summary(self):
        summary = json.dumps(
            {
                "overall_pass": True,
                "suites": {"a": {"pass": True, "hard_checks": {"x": True}, "soft_checks": {}}},
            }
        ).encode()
        ok = bench.score(bench.Child(1.0, 1.0, 1.0, 1.0, 0, summary), listed=2)
        self.assertTrue(ok.sound)
        self.assertEqual(ok.suite_pass_frac, 0.5)  # one listed suite missing
        self.assertFalse(bench.score(bench.Child(1.0, 1.0, 1.0, 1.0, 1, summary), 2).sound)

        sess = bench.Session(self._config(TINY), 5, frozenset(), Path(self._tmp.name), 0.0)
        sess._check(bench.Child(1.0, 1.0, 1.0, 1.0, 0, summary))
        sess._check(bench.Child(1.0, 1.0, 1.0, 1.0, 0, summary.replace(b"true", b"true ")))
        self.assertEqual((sess.attempted, sess.failed), (2, 1))  # repeat differs

    def test_speed_averages_the_bursts_inside_the_child(self):
        ref = bench.REF_BURST_S
        samples = [(1.0, 2 * ref), (2.0, ref), (3.0, ref / 2)]
        self.assertAlmostEqual(bench.speed(samples, 1.5, 3.0), 1.5)
        self.assertAlmostEqual(bench.speed(samples, 5.0, 6.0), 3.5 / 3)  # none inside: all
        with self.assertRaises(bench.BenchError):
            bench.speed([], 0.0, 1.0)


if __name__ == "__main__":
    unittest.main()
