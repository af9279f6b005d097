"""Each demo script runs to exit 0 in a fresh interpreter.

run_all_suites.py is left out: it rewrites runs/demo.  The others print
only; each runs in a temporary working directory all the same.
"""

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import dunklkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


class TestDemos(unittest.TestCase):
    def _run(self, name):
        src = os.path.dirname(os.path.dirname(dunklkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        with tempfile.TemporaryDirectory() as tmp:
            argv = [sys.executable, str(DEMOS / f"{name}.py")]
            out = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
            self.assertEqual(out.returncode, 0, out.stderr)
            self.assertEqual(os.listdir(tmp), [])

    def test_heat_flow(self):
        self._run("heat_flow")

    def test_kato_classify(self):
        self._run("kato_classify")

    def test_riesz_weak11(self):
        self._run("riesz_weak11")

    def test_schrodinger_domination(self):
        self._run("schrodinger_domination")

    def test_transform_roundtrip(self):
        self._run("transform_roundtrip")


if __name__ == "__main__":
    unittest.main()
