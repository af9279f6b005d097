"""Run configuration loading and validation paths."""

import copy
import json
import math
import os
import sys
import tempfile
import unittest

import yaml
from hypothesis import given, settings, strategies as st

from dunklkit.config import DEFAULT_SWEEPS, load_config
from dunklkit.errors import ConfigError
from dunklkit.intertwine import KAPPA_MAX


def _write(tmp, name, payload):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        if name.endswith(".json"):
            json.dump(payload, fh)
        elif isinstance(payload, str):
            fh.write(payload)
        else:
            yaml.safe_dump(payload, fh)
    return path


class TestLoadConfig(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def test_full_document(self):
        path = _write(
            self.tmp,
            "run.yaml",
            {
                "group": {"kind": "z2_product", "multiplicities": [0.5, 1.0]},
                "grid": {"R": 8.0, "N": 64},
                "potential": {"preset": "constant", "params": {"c": 2}},
                "suites": ["plancherel"],
                "sweeps": {"t_list": [0.2]},
                "out_dir": "runs/x",
                "seed": 7,
            },
        )
        cfg = load_config(path, known_suites={"plancherel", "heat_kernel"})
        self.assertEqual(cfg.group["multiplicities"], [0.5, 1.0])
        self.assertEqual(cfg.grid, {"R": 8.0, "N": 64})
        self.assertEqual(cfg.potential["params"]["c"], 2.0)
        self.assertEqual(cfg.suites, ("plancherel",))
        self.assertEqual(cfg.sweeps["t_list"], [0.2])
        # unspecified sweep axes fall back to the defaults
        self.assertEqual(cfg.sweeps["kappa_list"], DEFAULT_SWEEPS["kappa_list"])
        self.assertEqual(cfg.seed, 7)

    def test_json_document(self):
        path = _write(self.tmp, "run.json", {"grid": {"R": 6.0, "N": 32}})
        cfg = load_config(path)
        self.assertEqual(cfg.grid["N"], 32)

    def test_empty_suite_list_means_all(self):
        path = _write(self.tmp, "run.yaml", {"suites": []})
        cfg = load_config(path, known_suites={"b", "a"})
        self.assertEqual(cfg.suites, ("a", "b"))

    def test_defaults_fill_missing_sections(self):
        path = _write(self.tmp, "run.yaml", {})
        cfg = load_config(path)
        self.assertEqual(cfg.group["kind"], "z2_product")
        self.assertEqual(cfg.out_dir, "runs/latest")
        self.assertEqual(cfg.seed, 0)

    def test_dihedral_group(self):
        # only the sign-product group is computed; a dihedral document is
        # refused, and the message names the kind it was given
        path = _write(
            self.tmp, "run.yaml", {"group": {"kind": "dihedral", "m": 4, "k_even": 0.3}}
        )
        with self.assertRaisesRegex(ConfigError, "'dihedral'"):
            load_config(path)

    def test_missing_file(self):
        with self.assertRaises(ConfigError):
            load_config(os.path.join(self.tmp, "nope.yaml"))

    def test_unparseable(self):
        path = _write(self.tmp, "run.yaml", "group: [unclosed\n  - ]broken")
        with self.assertRaises(ConfigError):
            load_config(path)

    def test_non_mapping_root(self):
        path = _write(self.tmp, "run.yaml", "- 1\n- 2\n")
        with self.assertRaises(ConfigError):
            load_config(path)

    def test_rejections(self):
        bad_docs = [
            {"group": {"kind": "bogus"}},
            {"group": {"kind": "z2_product", "multiplicities": []}},
            {"group": {"kind": "z2_product", "multiplicities": [-0.5]}},
            {"group": {"kind": "z2_product", "multiplicities": [0.5, 0.5, 0.5]}},
            {"group": {"kind": "dihedral", "m": 1}},
            {"grid": {"R": -1.0}},
            {"grid": {"N": 33}},
            {"grid": {"N": 6}},
            {"grid": {"N": 2.5}},
            {"potential": {"preset": "bogus"}},
            {"potential": {"preset": "inverse_power"}},
            {"potential": {"preset": "soft_coulomb", "params": {"a": -1}}},
            {"potential": {"preset": "constant", "params": {"c": -1}}},
            {"potential": {"preset": "bump", "params": {"h": -1}}},
            {"potential": {"preset": "constant", "params": {"c": float("nan")}}},
            {"potential": {"preset": "inverse_power", "params": {"beta": float("inf")}}},
            {"potential": {"preset": "soft_coulomb", "params": {"a": "x"}}},
            {"potential": {"preset": "soft_coulomb", "params": {"a": [1]}}},
            {"potential": {"preset": "soft_coulomb", "params": {"b": 2.0}}},
            {"potential": {"preset": "soft_coulomb", "params": {"a": 10**400}}},
            {"potential": {"preset": "soft_coulomb", "params": {"a": True}}},
            {"potential": {"preset": "inverse_power", "params": {"beta": True}}},
            {"potential": {"preset": ["soft_coulomb"]}},
            {"suites": "plancherel"},
            {"sweeps": {"t_list": ["x"]}},
            {"seed": -3},
            {"seed": 1.5},
            {"seed": True},
            {"potentail": {"preset": "zero"}},
            {"group": {"kind": "z2_product", "multiplicities": [0.5], "m": 3}},
            {"group": {"kind": "dihedral", "multiplicities": [0.5]}},
            {"grid": {"N": 32, "n": 8}},
            {"potential": {"preset": "soft_coulomb", "param": {"a": 1.0}}},
            {"sweeps": {"t_lst": [5.0]}},
            {"sweeps": {"p_list": [0.5]}},
            {"sweeps": {"q_list": ["infinity"]}},
            {"sweeps": {"q_list": [float("nan")]}},
            {"sweeps": {"p_list": []}},
            {"out_dir": 5},
            {"potential": {"csv": "x.csv", "preset": "bogus", "params": {"a": -1}}},
            {"potential": {"csv": "x.csv", "preset": "zero"}},
            {"potential": {"csv": "x.csv", "params": {}}},
        ]
        for i, doc in enumerate(bad_docs):
            path = _write(self.tmp, f"bad{i}.yaml", doc)
            with self.assertRaises(ConfigError, msg=f"doc {i}: {doc}"):
                load_config(path)

    def test_preset_params_at_their_limits(self):
        # zero a, zero w and a cutoff at or below zero give a potential >= 0
        for preset, params in (("soft_coulomb", {"a": 0}), ("bump", {"h": 0, "w": 0}),
                               ("inverse_power", {"beta": 0.5, "cutoff": -1.0}),
                               ("constant", {"c": 0.0}), ("zero", {})):
            path = _write(self.tmp, "run.yaml", {"potential": {"preset": preset, "params": params}})
            cfg = load_config(path)
            self.assertEqual(cfg.potential["params"], {k: float(v) for k, v in params.items()})

    def test_multiplicities_outside_the_tested_range(self):
        # every place a multiplicity enters, with each kind of bad value; the
        # message names the limit
        places = {
            "multiplicities": lambda v: {"group": {"kind": "z2_product", "multiplicities": [0.5, v]}},
            "kappa_list": lambda v: {"sweeps": {"kappa_list": [0.0, v]}},
        }
        for name, doc in places.items():
            for v in ("x", "0.5", [1.0], float("inf"), float("nan"), -0.5, KAPPA_MAX + 0.01, 1e300,
                      True):
                with self.subTest(place=name, value=v):
                    path = _write(self.tmp, "run.yaml", doc(v))
                    with self.assertRaisesRegex(ConfigError, f"KAPPA_MAX = {KAPPA_MAX}"):
                        load_config(path)
            path = _write(self.tmp, "run.yaml", doc(KAPPA_MAX))
            load_config(path)

    def test_t_list_must_be_positive_finite_times(self):
        for t_list in ([-0.1], [float("nan")], 0.1, [0.5, 0.0], [float("inf")], [True, "x"], [True],
                       []):
            with self.subTest(t_list=t_list):
                path = _write(self.tmp, "run.yaml", {"sweeps": {"t_list": t_list}})
                with self.assertRaises(ConfigError):
                    load_config(path)
        for kappa_list in (0.5, []):
            path = _write(self.tmp, "run.yaml", {"sweeps": {"kappa_list": kappa_list}})
            with self.assertRaises(ConfigError):
                load_config(path)

    def test_exponent_sweeps_are_kept_as_given(self):
        sweeps = {"p_list": [1, 2], "q_list": [2, "inf", float("inf")]}
        path = _write(self.tmp, "run.yaml", {"sweeps": sweeps})
        self.assertEqual(load_config(path).sweeps, {**DEFAULT_SWEEPS, **sweeps})

    def test_grid_half_width_must_be_finite(self):
        for R in (float("inf"), float("nan"), 0.0, True):
            path = _write(self.tmp, "run.yaml", {"grid": {"R": R, "N": 32}})
            with self.assertRaises(ConfigError, msg=R):
                load_config(path)

    def test_messages_name_the_value(self):
        # PyYAML reads 1.0e6 (no exponent sign) and 1e-2 (no dot) as strings
        docs = {
            "R: 1.0e6": "grid: {R: 1.0e6, N: 32}\n",
            "N: 33": "grid: {N: 33}\n",
            "N: 4": "grid: {N: 4}\n",
            "N: '32'": "grid: {N: '32'}\n",
            "t_list: [0.5, -2]": "sweeps: {t_list: [0.5, -2]}\n",
            "t_list: [1e-2]": "sweeps: {t_list: [1e-2]}\n",
            "seed: -3": "seed: -3\n",
            "seed: 2.5": "seed: 2.5\n",
        }
        shown = ["'1.0e6'", "33", "4", "'32'", "-2", "'1e-2'", "-3", "2.5"]
        for (name, text), value in zip(docs.items(), shown):
            with self.subTest(name):
                path = _write(self.tmp, "run.yaml", text)
                with self.assertRaises(ConfigError) as ctx:
                    load_config(path)
                self.assertIn(f"not {value}", str(ctx.exception))

    def test_unknown_suite(self):
        path = _write(self.tmp, "run.yaml", {"suites": ["nope"]})
        with self.assertRaises(ConfigError):
            load_config(path, known_suites={"plancherel"})
        # without a registry the names pass through unchecked
        cfg = load_config(path)
        self.assertEqual(cfg.suites, ("nope",))


BASE_DOC = {
    "group": {"kind": "z2_product", "multiplicities": [0.5, 1.0]},
    "grid": {"R": 6.0, "N": 16},
    "potential": {"preset": "soft_coulomb", "params": {"a": 1.0}},
    "suites": ["plancherel"],
    "sweeps": {"t_list": [0.1, 0.5], "kappa_list": [0.0, 0.5], "p_list": [1, 2], "q_list": [2, "inf"]},
    "out_dir": "runs/x",
    "seed": 3,
}
# the number slots of BASE_DOC, each with values valid there
SLOTS = {
    ("group", "multiplicities", 0): st.floats(0.0, KAPPA_MAX),
    ("grid", "R"): st.floats(0.5, 20.0),
    ("grid", "N"): st.integers(4, 32).map(lambda k: 2 * k),
    ("potential", "params", "a"): st.floats(0.0, 5.0),
    ("sweeps", "t_list", 1): st.floats(0.01, 5.0),
    ("sweeps", "kappa_list", 1): st.floats(0.0, KAPPA_MAX),
    ("sweeps", "q_list", 0): st.one_of(st.just("inf"), st.floats(1.0, 10.0)),
    ("seed",): st.integers(0, 2**31),
}
# slots that take near misses only: the number slots and every list and mapping
MISS_SLOTS = [*SLOTS, ("group", "multiplicities"), ("potential", "params"), ("sweeps", "t_list"),
              ("sweeps", "kappa_list"), ("sweeps", "p_list"), ("sweeps",), ("grid",), ("out_dir",)]
NEAR_MISSES = st.sampled_from([-1.0, -1, 0, 0.0, math.inf, -math.inf, math.nan, 1e300,
                               KAPPA_MAX + 0.01, True, False, None, "1.0", "inf", [1.0], [], {}])
SECTIONS = [(), ("group",), ("grid",), ("potential",), ("potential", "params"), ("sweeps",)]
TINY, HUGE = math.ulp(0.0), sys.float_info.max


def _set(doc: dict, path: tuple, value):
    """doc at path <- value, unless an earlier near miss replaced a container on the way."""
    node = doc
    try:
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
    except (TypeError, KeyError, IndexError):
        pass


class TestConfigNearMisses(unittest.TestCase):
    """A document with valid values loads; with near misses it loads to a
    RunConfig whose numbers are finite and in range, or is refused with
    ConfigError; with a misspelt key it is refused."""

    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    @settings(max_examples=250, deadline=None)
    @given(
        valid=st.fixed_dictionaries({}, optional=SLOTS),
        misses=st.dictionaries(st.sampled_from(MISS_SLOTS), NEAR_MISSES, max_size=2),
        misspelt=st.none() | st.tuples(st.sampled_from(SECTIONS), st.integers(0, 9), st.integers(0, 2)),
    )
    def test_each_draw_is_refused_or_in_range(self, valid, misses, misspelt):
        doc = copy.deepcopy(BASE_DOC)
        for path, value in [*valid.items(), *misses.items()]:
            _set(doc, path, value)
        if misspelt is not None:
            section, i, how = misspelt
            node = doc
            for k in section:
                node = node.get(k) if isinstance(node, dict) else None
            if isinstance(node, dict) and node:
                key = sorted(node)[i % len(node)]
                node[(key + "s", key[0] + key, key[::-1] + "_")[how]] = node.pop(key)
            else:
                misspelt = None
        try:
            cfg = load_config(_write(self._tmp.name, "draw.yaml", doc))
        except ConfigError:
            self.assertTrue(misses or misspelt, doc)
            return
        self.assertIsNone(misspelt, doc)

        def within(values, lo, hi, kinds=(int, float)):
            return all(type(v) in kinds and lo <= v <= hi for v in values)

        self.assertTrue(cfg.group["multiplicities"], doc)
        self.assertTrue(within(cfg.group["multiplicities"], 0.0, KAPPA_MAX, (float,)), doc)
        self.assertTrue(within([cfg.grid["R"]], TINY, HUGE, (float,)), doc)
        self.assertTrue(within([cfg.grid["N"]], 8, math.inf, (int,)) and cfg.grid["N"] % 2 == 0, doc)
        self.assertTrue(within(cfg.potential["params"].values(), 0.0, HUGE, (float,)), doc)
        sweeps = cfg.sweeps
        self.assertLessEqual(set(sweeps), {"t_list", "kappa_list", "p_list", "q_list"})
        self.assertTrue(all(sweeps.values()), doc)
        self.assertTrue(within(sweeps["t_list"], TINY, HUGE), doc)
        self.assertTrue(within(sweeps["kappa_list"], 0.0, KAPPA_MAX), doc)
        for key in ("p_list", "q_list"):
            self.assertTrue(within([v for v in sweeps.get(key, []) if v != "inf"], 1, math.inf), doc)
        self.assertTrue(within([cfg.seed], 0, math.inf, (int,)), doc)
        self.assertIsInstance(cfg.out_dir, str)


if __name__ == "__main__":
    unittest.main()
