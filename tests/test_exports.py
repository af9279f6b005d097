"""Every name in the package's lazy export map resolves.

`dunklkit.__getattr__` imports a name only when it is first accessed, so a
stale entry in `_EXPORTS` would otherwise fail only at that access.
"""

import importlib
import os
import subprocess
import sys
import unittest

import dunklkit


def _run(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(dunklkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestExports(unittest.TestCase):
    def test_cli_does_not_import_scipy_integrate(self):
        # scipy.integrate pulls in scipy.optimize and scipy.sparse.linalg,
        # about a quarter of the command line's start-up
        code = "import dunklkit.cli, sys; print('scipy.integrate' in sys.modules)"
        self.assertEqual(_run(code), "False")

    def test_run_imports_no_scipy(self):
        # the package needs only numpy, PyYAML and click; scipy, when
        # installed, is a test oracle, and its import was half the start-up
        code = ("import dunklkit.cli, dunklkit.suites, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        self.assertEqual(_run(code), "[]")

    def test_resolved_calculus_imports_no_numpy_ma(self):
        # np.unique imports numpy.ma on first use (numpy 2.4): 14-16 ms and
        # about 1.3 MiB in every run
        code = ("import sys; from dunklkit.grids import build_grid; "
                "from dunklkit.reflection import RootSystem; "
                "from dunklkit.schrodinger import potential_preset, resolved_calculus; "
                "g = build_grid(RootSystem.z2_product([0.5]), 6.0, 24); "
                "resolved_calculus(g, potential_preset(g, 'soft_coulomb', a=1.0)); "
                "print('numpy.ma' in sys.modules)")
        self.assertEqual(_run(code), "False")

    def test_every_export_resolves(self):
        for name, module in dunklkit._EXPORTS.items():
            mod = importlib.import_module(module, dunklkit.__name__)
            self.assertTrue(hasattr(mod, name), f"{name} missing from {mod.__name__}")
            self.assertIs(getattr(dunklkit, name), getattr(mod, name), name)


if __name__ == "__main__":
    unittest.main()
