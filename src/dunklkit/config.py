"""Run configuration: a single YAML (or JSON) mapping describing the scene
(group, grid, potential), the suite list, sweep axes, and output settings."""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .intertwine import KAPPA_MAX
from .operators import FD_ORDER
from .schrodinger import PRESET_PARAMS

DEFAULT_GROUP = {"kind": "z2_product", "multiplicities": [0.5]}
DEFAULT_GRID = {"R": 10.0, "N": 128}
DEFAULT_POTENTIAL = {"preset": "soft_coulomb", "params": {"a": 1.0}}
DEFAULT_SWEEPS = {
    "t_list": [0.1, 0.5, 1.0],
    "kappa_list": [0.0, 0.5, 1.5],
}
# L^p exponents, numbers >= 1 or "inf": accepted and checked, read by no suite yet
EXPONENT_SWEEPS = ("p_list", "q_list")
# the largest rank a scene may have: in rank three the kernel grid has 32^3
# nodes and each smoothing splitting table takes 1 GiB
MAX_RANK = 2


@dataclass(frozen=True)
class RunConfig:
    group: dict
    grid: dict
    potential: dict
    suites: tuple
    sweeps: dict
    out_dir: str
    seed: int


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _known(section: dict, keys, what: str):
    """Refuse a key of section outside keys: a misspelt key would run on the defaults."""
    unknown = sorted(map(str, set(section) - set(keys)))
    _require(not unknown, f"unknown {what} key(s) {unknown}, expected some of {list(keys)}")


def _kappa(v, what: str) -> float:
    """A multiplicity in [0, KAPPA_MAX], the Bessel kernels' tested range."""
    _require(type(v) in (int, float) and 0 <= v <= KAPPA_MAX,  # YAML true is no number
             f"{what} must be numbers in [0, KAPPA_MAX = {KAPPA_MAX}], not {v!r}")
    return float(v)


def _validate_group(g: dict):
    _require(isinstance(g, dict), "group section must be a mapping")
    kind = g.get("kind", "z2_product")
    _require(kind == "z2_product",
             f"group kind must be z2_product, the one group the package computes, not {kind!r}")
    _known(g, ("kind", "multiplicities"), "group")
    mult = g.get("multiplicities", [0.5])
    _require(isinstance(mult, list) and len(mult) >= 1, "multiplicities must be a nonempty list")
    _require(len(mult) <= MAX_RANK,
             f"a scene takes at most MAX_RANK = {MAX_RANK} multiplicities, the largest rank whose "
             f"tables fit in memory, not {len(mult)}")
    return {"kind": kind, "multiplicities": [_kappa(m, "multiplicities") for m in mult]}


def _validate_grid(g: dict):
    _require(isinstance(g, dict), "grid section must be a mapping")
    _known(g, tuple(DEFAULT_GRID), "grid")
    R = g.get("R", DEFAULT_GRID["R"])
    N = g.get("N", DEFAULT_GRID["N"])
    _require(type(R) in (int, float) and 0 < R <= sys.float_info.max,
             f"grid R must be finite, > 0, not {R!r}")
    _require(isinstance(N, int) and N > 0, f"grid N must be a positive integer, not {N!r}")
    _require(N % 2 == 0, f"grid N must be even, not {N!r}")
    width = FD_ORDER + 1
    _require(
        N >= width,
        f"grid N must be at least {width + 1}, not {N!r}: the {width}-node derivative stencil "
        f"needs {width} nodes per axis",
    )
    return {"R": float(R), "N": N}


def _validate_potential(p: dict):
    _require(isinstance(p, dict), "potential section must be a mapping")
    _known(p, ("preset", "params", "csv"), "potential")
    if "csv" in p:
        _require(not {"preset", "params"} & set(p), "potential csv excludes preset and params")
        return {"csv": str(p["csv"])}
    preset = p.get("preset", "zero")
    _require(preset in tuple(PRESET_PARAMS), f"unknown potential preset {preset!r}")
    params = p.get("params", {})
    _require(isinstance(params, dict), "potential params must be a mapping")
    _known(params, PRESET_PARAMS[preset], f"{preset} parameter")
    for k, v in params.items():
        ok = type(v) in (int, float) and abs(v) <= sys.float_info.max  # not bool, nan or inf
        _require(ok, f"potential parameter {k} must be a finite number")
        _require(v >= 0 or k not in ("a", "c", "h"), f"potential parameter {k} must be >= 0")
    if preset == "inverse_power":
        _require("beta" in params, "inverse_power requires a beta parameter")
    return {"preset": preset, "params": {k: float(v) for k, v in params.items()}}


def load_config(path, known_suites=None) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    text = p.read_text()
    try:
        if p.suffix == ".json":
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except Exception as exc:
        raise ConfigError(f"config is not parseable: {exc}") from exc
    _require(isinstance(data, dict), "config root must be a mapping")
    _known(data, ("group", "grid", "potential", "suites", "sweeps", "out_dir", "seed"), "top-level")
    group = _validate_group(data.get("group", dict(DEFAULT_GROUP)))
    grid = _validate_grid(data.get("grid", dict(DEFAULT_GRID)))
    potential = _validate_potential(data.get("potential", dict(DEFAULT_POTENTIAL)))
    suites = data.get("suites", [])
    _require(
        isinstance(suites, list) and all(isinstance(s, str) for s in suites),
        "suites must be a list of suite names",
    )
    if known_suites is not None:
        for s in suites:
            _require(s in known_suites, f"unknown suite {s!r}")
        if not suites:
            suites = sorted(known_suites)  # omitted list means the full set
    user_sweeps = data.get("sweeps", {})
    _require(isinstance(user_sweeps, dict), "sweeps must be a mapping")
    _known(user_sweeps, (*DEFAULT_SWEEPS, *EXPONENT_SWEEPS), "sweeps")
    sweeps = {**DEFAULT_SWEEPS, **user_sweeps}
    for key, values in sweeps.items():
        _require(isinstance(values, list) and values, f"{key} must be a nonempty list")
    for t in sweeps["t_list"]:
        _require(type(t) in (int, float) and 0 < t <= sys.float_info.max,
                 f"t_list entries must be finite positive numbers, not {t!r}")
    for k in sweeps["kappa_list"]:
        _kappa(k, "kappa_list entries")
    for key in EXPONENT_SWEEPS:
        ok = all(v == "inf" or type(v) in (int, float) and v >= 1 for v in sweeps.get(key, []))
        _require(ok, f"{key} entries must be numbers >= 1 or 'inf'")
    out_dir = data.get("out_dir", "runs/latest")
    _require(isinstance(out_dir, str), "out_dir must be a string")
    seed = data.get("seed", 0)
    _require(type(seed) is int and seed >= 0, f"seed must be a nonnegative integer, not {seed!r}")
    return RunConfig(group, grid, potential, tuple(suites), sweeps, out_dir, seed)
