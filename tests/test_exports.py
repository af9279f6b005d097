"""Every name in the package's lazy export map resolves.

`dunklkit.__getattr__` imports a name only when it is first accessed, so a
stale entry in `_EXPORTS` would otherwise fail only at that access.
"""

import importlib
import unittest

import dunklkit


class TestExports(unittest.TestCase):
    def test_every_export_resolves(self):
        for name, module in dunklkit._EXPORTS.items():
            mod = importlib.import_module(module, dunklkit.__name__)
            self.assertTrue(hasattr(mod, name), f"{name} missing from {mod.__name__}")
            self.assertIs(getattr(dunklkit, name), getattr(mod, name), name)


if __name__ == "__main__":
    unittest.main()
