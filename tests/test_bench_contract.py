"""Every function the benchmark's layer trace names must exist.

perfbench/run.py looks each per_layer name up in the trace counters, and a
name that no longer resolves to a traced function ends a traced run with a
KeyError; this test fails first.
"""

import importlib
import json
import unittest
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_names() -> list:
    spec = json.loads(BENCHMARK.read_text())
    heads = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    return sorted(h for h in heads if h != "trace" and not h.startswith("layer."))


class TestBenchmarkContract(unittest.TestCase):
    def test_per_layer_names_resolve(self):
        names = _traced_names()
        self.assertTrue(names)
        for name in names:
            module, attr = name.split(".")
            mod = importlib.import_module(f"dunklkit.{module}")
            if name == "kato.quad":
                # quadrature.quad as kato imports it; the tracer wraps the attribute
                self.assertTrue(hasattr(mod, "quad"), name)
                continue
            if module == "suites" and attr in mod.REGISTRY:
                continue
            obj = getattr(mod, attr, None)
            self.assertFalse(attr.startswith("_"), name)
            self.assertTrue(callable(obj), name)
            self.assertEqual(getattr(obj, "__module__", None), mod.__name__, name)


if __name__ == "__main__":
    unittest.main()
