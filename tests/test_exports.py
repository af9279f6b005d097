"""What importing the package loads, and the version it reports.

The package root holds only the docstring and `__version__`: every name is
imported from the submodule that defines it.  Importing the root and the
command line must load no numerics, so `--threads` can set the BLAS
variables first.
"""

import os
import subprocess
import sys
import unittest
from pathlib import Path

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

    def test_root_and_cli_import_no_numpy(self):
        # the CLI's --threads sets the BLAS thread variables, which numpy
        # reads only when it loads
        code = "import dunklkit, dunklkit.cli, sys; print('numpy' in sys.modules)"
        self.assertEqual(_run(code), "False")

    @unittest.skipIf(sys.version_info < (3, 11), "tomllib is new in Python 3.11")
    def test_version_matches_pyproject(self):
        # the benchmark records dunklkit.__version__ as provenance
        import tomllib

        pyproject = Path(dunklkit.__file__).resolve().parents[2] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        self.assertEqual(dunklkit.__version__, version)


if __name__ == "__main__":
    unittest.main()
