"""What every workload shares: timed operations, checks, and metrics.

A workload is a closed loop driven from one process: :meth:`Workload.step`
issues the next operation only after the previous one returned.  It
times each operation through :meth:`Context.op`, records the work it did
(:meth:`Context.rate`) and the latency a caller saw
(:meth:`Context.latency`), and counts every correctness check in
:meth:`Context.check` -- a failed check is a failed operation.  Between
operations :meth:`Context.probe` reads the host's speed, which the
end-to-end timings are scaled by.
"""

from __future__ import annotations

import math
import time

import numpy as np

from bench import hostspeed
from bench.trace import ROOT, Tracer
from repro.common.rng import RngStream
from repro.dut.gpu import Gpu, KernelLaunch

#: Failure messages kept for the report (the count is always exact).
MAX_FAILURE_MESSAGES = 20
#: Ground-truth integration step and chunk (samples per rail call).
TRUTH_DT = 1e-5
TRUTH_CHUNK = 1_000_000
#: Largest relative error of a measured energy against ground truth.
ENERGY_TOLERANCE = 0.005
#: Phase indices: every run first warms up (one operation, checked but
#: not timed into any metric); a traced run then measures untraced,
#: then traced.
UNTRACED, TRACED, WARMUP = PHASES = (0, 1, 2)


class _Op:
    """One timed operation; ``seconds`` is set when the block exits.

    In the traced phase the tracer records only inside operations, under
    a root span, so input generation and oracles never count as layer
    time.
    """

    __slots__ = ("ctx", "seconds", "_start", "_span")

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        self.seconds = 0.0
        self._span = None

    def __enter__(self) -> "_Op":
        tracer = self.ctx.tracer
        if tracer is not None and self.ctx.phase == TRACED:
            tracer.active = True
            self._span = tracer.open(ROOT)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        if self._span is not None:
            self.ctx.tracer.close(self._span)
            self.ctx.tracer.active = False
        self.ctx.op_seconds[self.ctx.phase] += self.seconds


class Context:
    """Timing, work and check accounting for one measured run.

    A traced run measures two phases, untraced then traced, so the
    tracing overhead can be read off the same process: ``phase`` is the
    index the recorders file their samples under.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.phase = WARMUP
        self.op_seconds = [0.0 for _ in PHASES]
        self.rates: list[list[tuple[float, float]]] = [[] for _ in PHASES]
        self.latencies: list[list[float]] = [[] for _ in PHASES]
        #: ``time.perf_counter()`` when each rate and latency was recorded.
        self.rate_ends: list[list[float]] = [[] for _ in PHASES]
        self.latency_ends: list[list[float]] = [[] for _ in PHASES]
        #: ``(time, seconds)`` of each reference kernel pass (:mod:`bench.hostspeed`).
        self.reference: list[list[tuple[float, float]]] = [[] for _ in PHASES]
        self._probed = -math.inf
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self) -> _Op:
        return _Op(self)

    def probe(self) -> None:
        """Time the reference kernel, at most every ``hostspeed.PROBE_EVERY_S``.

        Called between operations -- by the measuring loop after every
        step, and by workloads whose steps are long between the
        operations inside them.
        """
        if time.perf_counter() - self._probed >= hostspeed.PROBE_EVERY_S:
            for seconds in hostspeed.probe():
                self.reference[self.phase].append((time.perf_counter(), seconds))
            self._probed = time.perf_counter()

    def rate(self, work: float, seconds: float) -> None:
        """One throughput sample: ``work`` units done in ``seconds``."""
        self.rates[self.phase].append((float(work), float(seconds)))
        self.rate_ends[self.phase].append(time.perf_counter())

    def latency(self, seconds: float) -> None:
        self.latencies[self.phase].append(float(seconds))
        self.latency_ends[self.phase].append(time.perf_counter())

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(message)
        return bool(ok)

    def seconds_per_work(self, phase: int) -> float:
        work = sum(w for w, _ in self.rates[phase])
        seconds = sum(s for _, s in self.rates[phase])
        return seconds / work if work else float("nan")


def gpu_schedule(seed: int, sim_seconds: float) -> Gpu:
    """A seeded RTX 4000 Ada kernel sequence with idle gaps between kernels."""
    rng = np.random.default_rng([seed, 1])
    gpu = Gpu("rtx4000ada", RngStream(seed, "bench/gpu"))
    t = float(rng.uniform(0.1, 0.5))
    while t < sim_seconds:
        duration = float(rng.uniform(0.3, 3.0))
        gpu.launch(
            KernelLaunch(
                start=t,
                duration=duration,
                utilization=float(rng.uniform(0.5, 1.0)),
                n_waves=int(rng.integers(1, 9)),
            )
        )
        t += duration + float(rng.uniform(0.1, 1.5))
    return gpu


def true_energy(rails, t_end: float, dt: float = TRUTH_DT) -> float:
    """Integral of volts x amps over [0, t_end] summed over ``rails``.

    The ground truth every measured energy is held to: each rail's own
    ``sample_uniform`` on a grid five times finer than the sensor's.
    """
    n_total = int(round(t_end / dt))
    energy = 0.0
    for rail in rails:
        for lo in range(0, n_total, TRUTH_CHUNK):
            n = min(TRUTH_CHUNK, n_total - lo)
            volts, amps = rail.sample_uniform(lo * dt, dt, n)
            energy += float(np.dot(volts, amps)) * dt
    return energy


def check_energy(ctx: Context, measured: float, truth: float, label: str = "") -> bool:
    error = abs(measured - truth) / abs(truth)
    return ctx.check(
        error <= ENERGY_TOLERANCE,
        f"{label}energy {measured:.6g} J vs truth {truth:.6g} J "
        f"({100 * error:.4f}% > {100 * ENERGY_TOLERANCE}%)",
    )


def windows(count: int, size: int) -> list[range]:
    """Indices of ``count`` samples in consecutive groups of ``size``; a
    short tail joins the group before."""
    starts = list(range(0, count, size))
    if len(starts) > 1 and count - starts[-1] < size:
        starts.pop()
    bounds = [*starts, count]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def end_to_end(
    ctx: Context, rate_window: int = 1, latency_window: int = 1
) -> tuple[dict[str, float], dict[str, dict]]:
    """The throughput and latency every workload reports, plus ungated extras.

    Both are medians over windows of consecutive samples -- the rate of
    each window (its work over its time) and the median latency of each
    window -- sized by the workload to a fraction of a second or one
    whole operation.  Each window's value is first scaled by the host's
    speed around it (:mod:`bench.hostspeed`), so a window measured while
    neighbours slowed the whole host reads as one measured at its usual
    speed; the median over many windows then passes over the slow
    spells the scaling misses.  The unscaled medians are reported
    beside them, not gated.  The 99th percentile latency is reported
    with its sample count but not gated either: on a shared host it
    measures the neighbours' bursts.
    """
    rates, latencies = ctx.rates[UNTRACED], ctx.latencies[UNTRACED]
    probes = ctx.reference[UNTRACED]

    def speed_around(ends: list[float], group: range) -> float:
        """Host speed from the kernel passes timed during the window or
        just after it; the whole run's if there were none."""
        start = ends[group.start - 1] if group.start else -math.inf
        stop = ends[group.stop - 1] + 2 * hostspeed.PROBE_EVERY_S
        near = [s for t, s in probes if start <= t <= stop]
        return hostspeed.speed(near or [s for _, s in probes])

    raw_rates, scaled_rates = [], []
    for group in windows(len(rates), rate_window):
        rate = sum(rates[i][0] for i in group) / sum(rates[i][1] for i in group)
        raw_rates.append(rate)
        scaled_rates.append(rate / speed_around(ctx.rate_ends[UNTRACED], group))
    raw_medians, scaled_medians = [], []
    for group in windows(len(latencies), latency_window):
        median = float(np.median([latencies[i] for i in group]))
        raw_medians.append(median)
        scaled_medians.append(median * speed_around(ctx.latency_ends[UNTRACED], group))

    lat_ms = np.array(latencies) * 1e3
    gated = {
        "work_per_s": float(np.median(scaled_rates)),
        "op_p50_ms": 1e3 * float(np.median(scaled_medians)),
    }
    extras = {
        "work_per_s.raw": {"value": float(np.median(raw_rates)), "unit": "1/s"},
        "op_p50_ms.raw": {"value": 1e3 * float(np.median(raw_medians)), "unit": "ms"},
        "host_speed": {"value": hostspeed.speed([s for _, s in probes]), "unit": "ratio"},
        "op_p99_ms.raw": {"value": float(np.percentile(lat_ms, 99)), "unit": "ms"},
        "ops_timed": {"value": len(lat_ms), "unit": "count"},
        "windows": {"value": len(raw_medians), "unit": "count"},
    }
    return gated, extras


class Workload:
    """Base class: one closed-loop workload built from a seed.

    Subclasses build the program's benches in :meth:`setup` (timed as
    ``setup_s``), build any input or oracle table that is the
    benchmark's own in :meth:`prepare` (untimed), run one operation or
    round per :meth:`step`, and run their end-of-run oracles in
    :meth:`finish`.  ``RATE_WINDOW`` and ``LATENCY_WINDOW`` are the
    consecutive rate and latency samples that :func:`end_to_end` takes
    one median value from.
    """

    RATE_WINDOW = 1
    LATENCY_WINDOW = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the benchmark's own inputs and oracle tables (not timed)."""

    def step(self, ctx: Context) -> bool:
        """Run one operation or round; return False when out of input."""
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        """End-of-run correctness checks."""

    def layer_counters(self) -> dict[str, float]:
        """Per-layer counts only the workload can see (traced runs)."""
        return {}

    def close(self) -> None:
        """Release benches, sockets and files."""
