"""Run the dunklkit command line with its layer functions timed from outside.

    python3 perfbench/tracer.py STATS_JSON KEYED -- run CONFIG [run options]

Every public function defined in a layer module (``LAYERS``) is wrapped at
import time, and the wrapper is rebound in every ``dunklkit`` module that
imported the function by name.  ``kato.quad`` (scipy's adaptive quadrature as
``kato`` binds it) and each registered suite are wrapped as well.  The CLI
then runs unchanged, and on exit the counters go to STATS_JSON.

Each function keeps aggregate counters, never one record per call, so memory
stays bounded even for leaves called millions of times.  Self time is the
call's time minus the time of wrapped callees, tracked on a call stack; a
layer's time is the time during which any of its functions is running.
KEYED is a comma-separated list of ``module.function`` names whose calls are
also keyed by their grid parameters and scalar arguments, to count distinct
calls.  The dunklkit package must be importable (``src`` on PYTHONPATH).
"""

import dataclasses
import functools
import importlib
import json
import sys
import time
from numbers import Number

import numpy as np

LAYERS = (
    "grids",
    "intertwine",
    "transform",
    "heat",
    "operators",
    "schrodinger",
    "kato",
    "suites",
)


class Layer:
    """Time with at least one call of the module's functions active."""

    __slots__ = ("s", "depth")

    def __init__(self):
        self.s = 0.0
        self.depth = 0


class Counter:
    __slots__ = ("calls", "s", "self_s", "elems", "nbytes", "depth", "keys", "layer")

    def __init__(self, layer: Layer, keyed: bool):
        self.layer = layer
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.elems = 0
        self.nbytes = 0
        self.depth = 0
        self.keys = set() if keyed else None

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "s": self.s,
            "self_s": self.self_s,
            "elems": self.elems,
            "mb": self.nbytes / 2**20,
            "distinct": len(self.keys) if self.keys is not None else None,
        }


def _elems(args, kwargs) -> int:
    """Array elements passed in; a numeric scalar counts as one."""
    n = 0
    for a in (*args, *kwargs.values()):
        if isinstance(a, np.ndarray):
            n += a.size
        elif isinstance(a, Number) and not isinstance(a, bool):
            n += 1
    return n


def _nbytes(out) -> int:
    """Bytes of the arrays returned, from their sizes (one level deep)."""
    if isinstance(out, np.ndarray):
        return out.nbytes
    if isinstance(out, (tuple, list)):
        return sum(a.nbytes for a in out if isinstance(a, np.ndarray))
    fields = getattr(out, "__dict__", None)
    if fields:
        return sum(a.nbytes for a in fields.values() if isinstance(a, np.ndarray))
    return 0


def _key_part(a):
    if hasattr(a, "half_width") and hasattr(a, "n_axis"):  # a QuadratureGrid
        return ("grid", a.half_width, a.n_axis, tuple(a.rs.multiplicities))
    if isinstance(a, (Number, str)):
        return a
    return None


def _key(args, kwargs) -> tuple:
    """(grid parameters, t, ...) of one call; other arguments are ignored."""
    return tuple(map(_key_part, args)) + tuple(
        (k, _key_part(v)) for k, v in sorted(kwargs.items())
    )


def _timed(fn, c: Counter, stack: list):
    perf = time.perf_counter
    layer = c.layer

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        c.calls += 1
        c.elems += _elems(args, kwargs)
        if c.keys is not None:
            c.keys.add(_key(args, kwargs))
        stack.append(0.0)
        c.depth += 1
        layer.depth += 1
        t0 = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            c.depth -= 1
            layer.depth -= 1
            # a nested call is inside its outer call's time
            if c.depth == 0:
                c.s += dt
            if layer.depth == 0:
                layer.s += dt
            c.self_s += dt - stack.pop()
            if stack:
                stack[-1] += dt
        c.nbytes += _nbytes(out)
        return out

    return timed


def install(keyed=frozenset()) -> tuple:
    """Wrap the layer functions in place; returns the counters by qualified
    name and the layers by module name."""
    mods = {name: importlib.import_module(f"dunklkit.{name}") for name in LAYERS}
    suites = mods["suites"]
    suite_fns = {d.fn for d in suites.REGISTRY.values()}
    layers = {name: Layer() for name in LAYERS}
    counters, stack, wrapped = {}, [], {}

    def counter(qual: str) -> Counter:
        if qual in counters:
            raise ValueError(f"duplicate traced name {qual}")
        counters[qual] = Counter(layers[qual.split(".")[0]], qual in keyed)
        return counters[qual]

    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != mod.__name__
                or obj in suite_fns
            ):
                continue
            wrapped[id(obj)] = _timed(obj, counter(f"{name}.{attr}"), stack)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("dunklkit.") and mod is not None:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
    kato = mods["kato"]
    kato.quad = _timed(kato.quad, counter("kato.quad"), stack)
    for sname, d in list(suites.REGISTRY.items()):
        timed = _timed(d.fn, counter(f"suites.{sname}"), stack)
        suites.REGISTRY[sname] = dataclasses.replace(d, fn=timed)
    unknown = set(keyed) - set(counters)
    if unknown:
        raise ValueError(f"keyed names not traced: {sorted(unknown)}")
    return counters, layers


def stats(counters: dict, layers: dict) -> dict:
    """Counters by function, plus layer.<module> with inclusive and self time."""
    out = {q: c.as_dict() for q, c in counters.items()}
    for name, layer in layers.items():
        own = [c.self_s for q, c in counters.items() if q.split(".")[0] == name]
        out[f"layer.{name}"] = {"s": layer.s, "self_s": sum(own)}
    return out


def main(argv) -> None:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py STATS_JSON KEYED -- CLI_ARGS...")
    stats_path, keyed, cli_args = argv[0], argv[1], argv[3:]
    counters, layers = install(frozenset(k for k in keyed.split(",") if k))
    from dunklkit.cli import main as cli

    try:
        cli.main(args=cli_args, prog_name="dunklkit")
    finally:
        with open(stats_path, "w") as fh:
            json.dump(stats(counters, layers), fh)


if __name__ == "__main__":
    main(sys.argv[1:])
