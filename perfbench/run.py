"""Benchmark of the `dunklkit run` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The repository root is the parent of this directory; the package is
imported from its ``src`` (it is not installed).  Each workload is a config
under ``perfbench/workloads`` that ``python -m dunklkit.cli run CONFIG
--seed N --threads 1 --out TMP`` runs in a child process, with BLAS pinned
to one thread and outputs written to a scratch directory under
``.perfbench_tmp`` that is removed afterwards.

Children run side by side, one per CPU and at most two at once, so each
round yields two samples and a repeat of the same seed.  ``--trace 0``
measures set-up time, then runs rounds of the workload while another round
fits in S seconds (at least one) and reports medians of the end-to-end
metrics.  ``--trace 1`` runs rounds of one untraced and one traced child
(``perfbench/tracer.py``) and reports medians of the per-layer metrics and
the tracing overhead.  Metric names and units come from BENCHMARK.json.
Every child's output is checked: summary.json exists, the exit code agrees
with ``overall_pass``, every child of one run (traced or not) writes a
byte-identical summary, and no hard check fails beyond the workload's known
defects.

Every time reported (end-to-end and per-layer) is at the reference speed:
beside each child, pinned to its CPU, ``perfbench/sampler.py`` times a fixed
burst of work every 60 ms, and the child's measured times are multiplied by
its speed, the mean of REF_BURST_S over those burst times.  On a shared
2-vCPU KVM guest whose speed swings by up to 1.6x this cut the spread of
``default_scene``'s wall time over eight rounds from 15 % to 1.7 %.  The raw medians and the
speed are printed before the result line.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (child runs), ``failed`` (child runs that aborted, disagreed
or failed an unexpected hard check) and ``metrics``.

The benchmark's own tests: ``python3 -m pytest -q perfbench/selftest.py``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
THREADS = 1
# children run side by side, one per CPU, at most two at once: on a small
# shared host a pair keeps the CPUs equally loaded, which steadies the
# timings, and each pair repeats the seed for the identity check
CPUS = sorted(os.sched_getaffinity(0))[:2]
SETUP_ROUNDS = 2
SAMPLER = BENCH_DIR / "sampler.py"
# The sampler's burst time that defines the reference speed: a burst takes
# about this long on a vCPU of a 2-vCPU KVM guest on a Xeon (family 6,
# model 143).
REF_BURST_S = 0.0025
# a run must end within 180 s; a child still running at this point is killed
DEADLINE_S = 165.0

# Hard checks that fail on the parent commit of this benchmark, as
# "suite/check".  A run is correct when no other hard check fails, so a fix
# keeps it correct and a new failure does not.
KNOWN_DEFECTS = {
    "default_scene": frozenset(),
    # ROADMAP item 3 (rank two is not honest yet).  ball_bracket fails for
    # about half of all seeds, so 14 or 15 of 91 hard checks fail.
    "rank2_tables": frozenset(
        {
            "heat_kernel/kernel_mass",
            "heat_kernel/kernel_vs_spectral",
            "heat_kernel/semigroup_defect",
            "plancherel/grid_mass_selftest",
            "plancherel/parseval_gaussian",
            "plancherel/parseval_relative",
            "plancherel/roundtrip_relative",
            "reflection_geometry/ball_bracket",
            "riesz_l2/inverse_root_roundtrip",
            "smoothing/free_row_mass_one",
            "smoothing/row_mass_contraction_t0.1",
            "translation_convolution/heat_semigroup_convolution",
            "translation_convolution/translation_mass",
            "translation_convolution/translation_transform_identity",
            "trotter_order/halving_ratios",
        }
    ),
    # ROADMAP item 1: the resolved kernel rings at the potential's jump and
    # its row mass exceeds one, 3 of 95 hard checks.
    "rough_rank1": frozenset(
        {
            "smoothing/row_mass_contraction_t0.1",
            "smoothing/row_mass_contraction_t0.5",
            "smoothing/row_mass_contraction_t1.0",
        }
    ),
}

SETUP_CODE = (
    "import sys, dunklkit.suites as s\n"
    "from dunklkit.config import load_config\n"
    "load_config(sys.argv[1], known_suites=set(s.REGISTRY))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


@dataclass(frozen=True)
class Child:
    """One finished child process.  speed is the mean of REF_BURST_S over the
    sampler's burst times on the child's CPU while it ran: above 1 the host
    ran faster than the reference, and wall_s * speed is the child's wall time
    at the reference speed."""

    wall_s: float
    cpu_s: float
    speed: float
    rss_mb: float
    code: int
    summary: Optional[bytes]


@dataclass(frozen=True)
class Score:
    """What one child's summary.json says, against the suites listed."""

    sound: bool  # summary written and exit code agrees with overall_pass
    suite_pass_frac: float
    hard_pass_frac: float
    soft_pass_frac: float
    failed_hard: frozenset


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("DUNKLKIT_CACHE", None)  # no on-disk spectral tables shared across runs
    return env


def speed(samples: list, t0: float, t1: float) -> float:
    """Mean reference speed over the bursts that ended in [t0, t1], or over
    all bursts of the batch when none did."""
    inside = [d for t, d in samples if t0 <= t <= t1] or [d for _, d in samples]
    if not inside:
        raise BenchError("the speed sampler took no sample")
    return statistics.fmean(REF_BURST_S / d for d in inside)


def run_batch(jobs, env, log_path: Path, deadline: float) -> list:
    """Start the jobs (argv, summary path or None) at once, each pinned to its
    own CPU beside a speed sampler, and wait for all of them.  Wall time runs
    from a child's spawn to its exit; CPU time and peak RSS are that child's
    own rusage."""
    if len(jobs) > len(CPUS):
        raise ValueError("more jobs than CPUs")
    cpus = CPUS[: len(jobs)]
    procs, done, samplers, samples = {}, {}, {}, {}
    with open(log_path, "ab") as log:

        def kill_all():
            # the samplers only while they start; afterwards they outlive
            # the children and are stopped below
            for proc in [proc for proc, _ in procs.values()] or list(samplers.values()):
                if proc.pid not in done:
                    proc.kill()

        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill_all)
        timer.start()
        try:
            for cpu in cpus:
                samplers[cpu] = subprocess.Popen(
                    [sys.executable, str(SAMPLER), str(cpu)],
                    env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                )
            for proc in samplers.values():
                if proc.stdout.readline().strip() != b"ready":
                    raise BenchError("the speed sampler did not start")
            for (argv, _), cpu in zip(jobs, cpus):
                t0 = time.monotonic()
                proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
                procs[proc.pid] = (proc, t0)
                try:
                    os.sched_setaffinity(proc.pid, {cpu})
                except ProcessLookupError:  # already gone; its exit status tells
                    pass
            while len(done) < len(procs):
                pid, status, usage = os.wait4(-1, 0)
                if pid in procs:
                    done[pid] = (time.monotonic(), status, usage)
                else:  # a sampler, reaped here before its time
                    for proc in samplers.values():
                        if proc.pid == pid:
                            proc.returncode = os.waitstatus_to_exitcode(status)
                    raise BenchError("the speed sampler exited early")
            for proc in samplers.values():
                proc.send_signal(signal.SIGTERM)
            for cpu, proc in samplers.items():
                out, _ = proc.communicate(timeout=30)
                samples[cpu] = [tuple(map(float, line.split())) for line in out.decode().splitlines() if line]
        finally:
            timer.cancel()
            for proc in samplers.values():
                if proc.returncode is None:
                    proc.kill()
                    proc.communicate()
            for pid, (proc, _) in procs.items():
                if pid not in done:
                    proc.kill()
                    proc.wait()
    children = []
    for (proc, t0), (_, summary_path), cpu in zip(procs.values(), jobs, cpus):
        t1, status, usage = done[proc.pid]
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        summary = None
        if summary_path is not None and summary_path.is_file():
            summary = summary_path.read_bytes()
        children.append(
            Child(
                t1 - t0, usage.ru_utime + usage.ru_stime, speed(samples[cpu], t0, t1),
                usage.ru_maxrss / 1024.0, code, summary,
            )
        )
    return children


def score(child: Child, listed: int) -> Score:
    """Exit 2 or 3, or no summary.json, fails every listed suite and check."""
    if child.summary is None or child.code not in (0, 1):
        return Score(False, 0.0, 0.0, 0.0, frozenset())
    s = json.loads(child.summary)
    blocks = s["suites"]
    suites_failed = sum(not b["pass"] for b in blocks.values()) + listed - len(blocks)
    failed_hard = frozenset(
        f"{name}/{check}"
        for name, b in blocks.items()
        for check, ok in b["hard_checks"].items()
        if not ok
    )
    n_hard = sum(len(b["hard_checks"]) for b in blocks.values())
    n_soft = sum(len(b["soft_checks"]) for b in blocks.values())
    soft_failed = sum(not ok for b in blocks.values() for ok in b["soft_checks"].values())
    return Score(
        sound=child.code == (0 if s["overall_pass"] else 1),
        suite_pass_frac=1.0 - suites_failed / listed,
        hard_pass_frac=1.0 - len(failed_hard) / n_hard if n_hard else 1.0,
        soft_pass_frac=1.0 - soft_failed / n_soft if n_soft else 1.0,
        failed_hard=failed_hard,
    )


class Session:
    """Child runs of one workload and seed, with their output checks."""

    def __init__(self, config: Path, seed: int, known: frozenset, work: Path, deadline: float):
        self.config = config
        self.seed = seed
        self.known = known
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.listed = len(yaml.safe_load(config.read_text()).get("suites") or [])
        if not self.listed:
            raise BenchError(f"{config} must list its suites")
        self.reference = None  # first summary.json seen
        self.attempted = 0
        self.failed = 0
        self.scores = []
        self._n = 0

    def setup(self) -> list:
        """Wall times at the reference speed of processes that import the
        suites and load the config."""
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config)]
        children = run_batch([(argv, None)] * len(CPUS), self.env, self.work / "setup.log", self.deadline)
        if any(c.code != 0 for c in children):
            raise BenchError(f"set-up probe failed: exit codes {[c.code for c in children]}")
        return [c.wall_s * c.speed for c in children]

    def batch(self, traced, keyed=()) -> list:
        """`dunklkit run` once per flag in traced, all at once; returns
        (child, counters or None) pairs, and checks every child's output."""
        jobs, stats_paths = [], []
        for flag in traced:
            self._n += 1
            out = self.work / f"c{self._n}"
            cli = ["run", str(self.config), "--seed", str(self.seed), "--threads", str(THREADS), "--out", str(out)]
            stats_path = out.with_suffix(".stats.json") if flag else None
            if flag:
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(stats_path), ",".join(keyed), "--", *cli]
            else:
                argv = [sys.executable, "-m", "dunklkit.cli", *cli]
            jobs.append((argv, out / "summary.json"))
            stats_paths.append(stats_path)
        children = []
        for i in range(0, len(jobs), len(CPUS)):
            children += run_batch(jobs[i : i + len(CPUS)], self.env, self.work / "runs.log", self.deadline)
        results = []
        for child, stats_path in zip(children, stats_paths):
            self._check(child)
            stats = None
            if stats_path is not None and stats_path.is_file():
                stats = json.loads(stats_path.read_text())
            results.append((child, stats))
        return results

    def _check(self, child: Child) -> None:
        sc = score(child, self.listed)
        self.scores.append(sc)
        self.attempted += 1
        if self.reference is None and child.summary is not None:
            self.reference = child.summary
        ok = sc.sound and sc.failed_hard <= self.known and child.summary == self.reference
        if not ok:
            self.failed += 1
            unexpected = sorted(sc.failed_hard - self.known)
            print(
                f"run {self.attempted}: exit {child.code}, summary "
                f"{'missing' if child.summary is None else 'written'}, "
                f"identical {child.summary == self.reference}, "
                f"unexpected hard failures {unexpected}",
                file=sys.stderr,
            )

    def check_metrics(self) -> dict:
        return {
            "suite_pass_frac": min(s.suite_pass_frac for s in self.scores),
            "hard_pass_frac": min(s.hard_pass_frac for s in self.scores),
            "soft_pass_frac": min(s.soft_pass_frac for s in self.scores),
        }


def repeat(fn, seconds: float) -> list:
    """Call fn at least once, and again while another call fits in seconds."""
    results, start, last = [], time.monotonic(), 0.0
    while not results or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        results.append(fn())
        last = time.monotonic() - t0
    return results


def end_to_end(sess: Session, seconds: float) -> dict:
    setup = [t for _ in range(SETUP_ROUNDS) for t in sess.setup()]
    rounds = repeat(lambda: sess.batch([False] * len(CPUS)), seconds)
    children = [child for r in rounds for child, _ in r]
    print(
        f"measured over {len(children)} runs: median wall {statistics.median(c.wall_s for c in children):.3f} s, "
        f"cpu {statistics.median(c.cpu_s for c in children):.3f} s, "
        f"speed {statistics.median(c.speed for c in children):.3f} of the reference"
    )
    return {
        "run_s": statistics.median(c.wall_s * c.speed for c in children),
        "cpu_s": statistics.median(c.cpu_s * c.speed for c in children),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        **sess.check_metrics(),
    }


def layer_value(name: str, stats: dict, untraced: Child, traced: Child) -> float:
    """One per-layer metric: module.function.stat, layer.module.stat or trace.*"""
    if name == "trace.run_s":
        return traced.wall_s * traced.speed
    if name == "trace.overhead_s":
        return traced.wall_s * traced.speed - untraced.wall_s * untraced.speed
    head, stat = name.rsplit(".", 1)
    rec = stats[head]
    if stat == "distinct_ratio":
        return rec["distinct"] / rec["calls"] if rec["calls"] else 0.0
    if stat in ("s", "self_s"):
        return rec[stat] * traced.speed
    return rec[stat]


def per_layer(sess: Session, seconds: float, names) -> tuple:
    """Pairs of an untraced and a traced run (side by side when two CPUs are
    free); medians over the pairs, and the last pair's counters."""
    keyed = sorted({n.rsplit(".", 1)[0] for n in names if n.endswith(".distinct_ratio")})

    def pair():
        (untraced, _), (traced, stats) = sess.batch([False, True], keyed)
        if stats is None:
            raise BenchError("traced run wrote no counters")
        return {n: layer_value(n, stats, untraced, traced) for n in names}, stats

    pairs = repeat(pair, seconds)
    return {n: statistics.median(p[n] for p, _ in pairs) for n in names}, pairs[-1][1]


def print_trace_table(stats: dict, metrics: dict) -> None:
    """Every called function by self time, then the layers by time."""
    rows = sorted(
        ((q, r) for q, r in stats.items() if r.get("calls")), key=lambda qr: -qr[1]["self_s"]
    )
    print(f"{'function':48s} {'calls':>9s} {'s':>9s} {'self_s':>9s} {'elems':>11s} {'mb':>9s}")
    for q, r in rows:
        print(f"{q:48s} {r['calls']:9d} {r['s']:9.3f} {r['self_s']:9.3f} {r['elems']:11d} {r['mb']:9.2f}")
    layers = sorted(
        ((q, r) for q, r in stats.items() if q.startswith("layer.")), key=lambda qr: -qr[1]["s"]
    )
    for q, r in layers:
        print(f"{q:48s} {'':9s} {r['s']:9.3f} {r['self_s']:9.3f}")
    print(f"tracing overhead: {metrics.get('trace.overhead_s', float('nan')):.3f} s")


def git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import dunklkit
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "dunklkit": dunklkit.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "git_commit": git_commit(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, config: Path, seed: int, seconds: float, trace: bool,
            known: frozenset = frozenset()) -> dict:
    """Run one benchmark run and return the result object that run.py prints."""
    spec = load_spec()
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in metric_specs]
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    deadline = time.monotonic() + DEADLINE_S
    try:
        sess = Session(config, seed, known, work, deadline)
        if trace:
            values, stats = per_layer(sess, seconds, names)
            print_trace_table(stats, values)
        else:
            values = end_to_end(sess, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": sess.failed == 0,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload not in KNOWN_DEFECTS:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0:
            raise BenchError("seed must be nonnegative")
        if not (ROOT / "src" / "dunklkit" / "cli.py").is_file():
            raise BenchError(f"no dunklkit sources under {ROOT / 'src'}")
        config = BENCH_DIR / "workloads" / f"{args.workload}.yaml"
        print("provenance: " + json.dumps(provenance(), sort_keys=True))
        result = measure(args.workload, config, args.seed, args.seconds, bool(args.trace),
                         KNOWN_DEFECTS[args.workload])
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
