"""Command line runner: execute verification suites from a config file,
list the registry, and extract plottable curves from a finished run."""

import json
import os
import sys
from pathlib import Path

import click


def _set_threads(n):
    if n is None:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)


@click.group()
def main():
    """Numerical verification toolkit for reflection-symmetric harmonic
    analysis and damped semigroups."""


@main.command()
@click.argument("config_path", type=click.Path())
@click.option("--out", "out_dir", default=None, help="Output directory override.")
@click.option("--seed", type=int, default=None, help="Seed override (u64).")
@click.option("--threads", type=int, default=None, help="BLAS thread cap.")
@click.option("--strict", is_flag=True, help="Promote soft checks to hard.")
def run(config_path, out_dir, seed, threads, strict):
    """Run the suites named in CONFIG_PATH; write summary.json and CSVs."""
    _set_threads(threads)
    from .config import load_config
    from .errors import CapabilityError, ConfigError, NumericalError

    from .suites import REGISTRY, run_suites

    try:
        cfg = load_config(config_path, known_suites=set(REGISTRY))
        out = Path(out_dir) if out_dir else Path(cfg.out_dir)
        seed_val = cfg.seed if seed is None else seed
        summary = run_suites(cfg, out, seed_val, strict=strict)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except CapabilityError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(3)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    refused = False
    for name in summary["suite_order"]:
        block = summary["suites"][name]
        if "refused" in block:
            refused = True
            click.echo(f"refused: {name}: {block['refused']}", err=True)
            continue
        status = "pass" if block["pass"] else "FAIL"
        soft = block["soft_pass"]
        soft_txt = "" if soft is None else (" soft=ok" if soft else " soft=FAIL")
        click.echo(f"{status:4s}  {name}{soft_txt}")
    click.echo(f"summary: {out / 'summary.json'}")
    sys.exit(3 if refused else 0 if summary["overall_pass"] else 1)


@main.command("list-suites")
def list_suites():
    """Print every registered suite with its description and anchor."""
    from .suites import REGISTRY

    for name in sorted(REGISTRY):
        d = REGISTRY[name]
        click.echo(f"{name:24s} {d.description}  [{d.anchor}]")
    click.echo(f"{len(REGISTRY)} suites")


@main.command()
@click.argument("report", type=click.Path())
@click.argument("curve")
def plotdata(report, curve):
    """Emit the named curve from a run REPORT as two-column CSV on stdout."""
    p = Path(report)
    if p.is_dir():
        p = p / "summary.json"
    if not p.exists():
        click.echo(f"report not found: {p}", err=True)
        sys.exit(2)
    summary = json.loads(p.read_text())
    suite_name = summary.get("curves", {}).get(curve)
    if suite_name is None:
        click.echo(f"unknown curve {curve!r}", err=True)
        sys.exit(2)
    csv_path = p.parent / f"{suite_name}.csv"
    if not csv_path.exists():
        click.echo(f"curve file missing: {csv_path}", err=True)
        sys.exit(2)
    click.echo("x,y")
    for line in csv_path.read_text().splitlines()[1:]:
        name, x, y = line.split(",")
        if name == curve:
            click.echo(f"{x},{y}")


if __name__ == "__main__":
    main()
