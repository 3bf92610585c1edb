"""The host's current speed, read off a fixed reference kernel.

The development host is a shared 2-vCPU virtual machine whose speed
drifts by 10-80% for seconds to minutes at a time, as neighbours come
and go, and not always on both vCPUs alike.  A run measures the program
and, between its operations, this kernel, which uses no program code:
an interpreter loop, small numpy calls and a sort -- the mix of work
the workloads do.  Scaling a timing by ``REFERENCE_S`` over the
kernel's median time around it reads it as if on the host at its usual
speed; a change to the program moves the timing and not the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's median time on the development host at its usual speed.
REFERENCE_S = 0.003
#: Kernel repetitions per probe, and the least wall time between probes.
REPEATS = 3
PROBE_EVERY_S = 0.2

_rng = np.random.default_rng(0)
_SMALL = _rng.random(64)
_LARGE = _rng.random(100_000)


def kernel() -> float:
    """One pass of the reference work; returns a checksum so none is elided."""
    total = 0
    for i in range(12_000):
        total += (i * 7) % 13
    x = 0.0
    for _ in range(300):
        x += float(np.sum(_SMALL * 1.5 + 2.0))
    return total + x + float(np.sort(_LARGE)[0])


def probe(repeats: int = REPEATS) -> list[float]:
    """Seconds each of ``repeats`` kernel passes took."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def speed(samples: list[float]) -> float:
    """How much faster than usual the host ran: ``REFERENCE_S`` over the median."""
    return REFERENCE_S / statistics.median(samples)
