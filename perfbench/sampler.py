"""Host-speed sampler: python3 perfbench/sampler.py CPU

Pinned to CPU, at raised priority where the system allows it, the sampler
runs a fixed burst of work (scipy quadrature of a numpy integrand, a small
dense solve and a scalar loop, about 2.5 ms) and then sleeps for PERIOD_S,
until it receives SIGTERM.  It prints "ready" once warmed up, and on SIGTERM
one line "<end> <seconds>" per burst, with the end time on the
``time.monotonic`` clock.

On a shared 2-vCPU KVM guest the CPUs' speed swings by up to 1.6x over
seconds to minutes, for every process alike.  run.py divides the burst's
time at the reference speed by the bursts measured on a child's CPU while
the child ran, and scales the child's times by that factor; a change to
dunklkit cannot change the burst.
"""

import math
import os
import signal
import sys
import time

import numpy as np
from scipy.integrate import quad

PERIOD_S = 0.06

_A = np.random.default_rng(0).standard_normal((48, 48)) + 48.0 * np.eye(48)
_B = np.ones(48)


def _integrand(x):
    return np.exp(-0.5 * x * x) * np.cos(3.0 * x)


def burst() -> float:
    s = 0.0
    for k in range(12):
        s += quad(_integrand, 0.0, 4.0 + k)[0]
        s += float(np.linalg.solve(_A, _B)[0])
    for i in range(1, 3000):
        s += math.exp(-1.0 / i) * math.sqrt(i)
    return s


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    try:
        os.nice(-10)  # a waking burst then runs at once instead of queueing
    except PermissionError:
        pass
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    burst()
    print("ready", flush=True)
    samples = []
    while not stop:
        t0 = time.monotonic()
        burst()
        t1 = time.monotonic()
        samples.append((t1, t1 - t0))
        time.sleep(PERIOD_S)
    print("\n".join(f"{t:.6f} {d:.7f}" for t, d in samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
