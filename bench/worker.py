"""One workload in one fresh process: set up, measure, check, report.

Started by :mod:`bench.run`, never by hand.  The worker prints
``BENCH-READY`` once the workload is set up (the parent times process
start to that line as ``setup_s``) and ``BENCH-REFERENCE [...]``, the
reference kernel's times just after (:mod:`bench.hostspeed`), then --
unless ``--setup-only`` --
builds the benchmark's own inputs, measures for ``--seconds``, runs the
oracles and prints one ``BENCH-RESULT {json}`` line.

With ``--trace 1`` the layers are wrapped before set-up; the run then
measures half its time untraced and half traced, so the tracing
overhead is read off the same process.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time

from bench.workloads import load

READY = "BENCH-READY"
REFERENCE = "BENCH-REFERENCE"
RESULT = "BENCH-RESULT"
#: Reference kernel passes timed after each set-up.
SETUP_PROBES = 5


def measure(workload, ctx, seconds: float) -> None:
    """Step the closed loop until a mean-length step would overrun ``seconds``."""
    start = time.perf_counter()
    steps = 0
    ctx.probe()
    while workload.step(ctx):
        ctx.probe()
        steps += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / steps > seconds:
            break


def layer_metrics(tracer, ctx, workload, import_s: float, calibrate_s: float) -> dict:
    """Per-layer self times, call counts, work counters and trace checks.

    Times and counts are per timed operation: the traced phase lasts a
    fixed time, so totals would shift every layer's share when any one
    layer got faster.
    """
    from bench.trace import ROOT, inclusive_time, self_times
    from bench.workloads.common import TRACED, UNTRACED

    records = tracer.records()
    selfs, calls, _ = self_times(records)
    wall = ctx.op_seconds[TRACED]
    ops = calls.get(ROOT, 0)
    per_op = 1.0 / ops if ops else 0.0
    metrics: dict[str, float] = {}
    for name, value in selfs.items():
        metrics["bench.other_s" if name == ROOT else f"{name}.self_s"] = value * per_op
        metrics[f"{name}.calls"] = calls[name] * per_op
    counters = tracer.counters
    computed = counters.get("dut.samples_computed", 0.0)
    metrics["dut.samples_used_ratio"] = (
        counters.get("dut.samples_used", 0.0) / computed if computed else 0.0
    )
    for name in ("transport.bytes", "store.bytes_written"):
        metrics[name] = counters.get(name, 0.0) * per_op
    metrics.update(workload.layer_counters())
    metrics["storage.measure_trace_s"] = (
        inclusive_time(records, "storage.measure_trace") * per_op
    )
    metrics["setup.import_s"] = import_s
    metrics["calibration.calibrate_all_s"] = calibrate_s
    metrics["trace.ops"] = ops
    metrics["trace.wall_s"] = wall
    metrics["trace.self_sum_error_pct"] = (
        100.0 * (sum(selfs.values()) - wall) / wall if wall else 0.0
    )
    untraced, traced = ctx.seconds_per_work(UNTRACED), ctx.seconds_per_work(TRACED)
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-trace", help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The workload module imports numpy and the program; that import is
    # the bulk of set-up for the lighter workloads.
    begin = time.perf_counter()
    cls = load(args.workload)
    import_s = time.perf_counter() - begin
    from bench import hostspeed
    from bench.workloads.common import TRACED, UNTRACED, Context, end_to_end

    tracer = None
    missing: list[str] = []
    if args.trace:
        from bench.layers import instrument
        from bench.trace import Tracer, inclusive_time

        tracer = Tracer()
        missing = instrument(tracer)
        tracer.active = True
    workload = cls(args.seed, args.workdir)
    workload.setup()
    try:
        calibrate_s = 0.0
        if tracer is not None:
            tracer.active = False
            calibrate_s = inclusive_time(tracer.records(), "calibration.calibrate_all")
            tracer.reset()
        print(READY, flush=True)
        # The host's speed just after set-up, which ``setup_s`` is scaled by.
        print(REFERENCE, json.dumps(hostspeed.probe(SETUP_PROBES)), flush=True)
        if args.setup_only:
            return 0
        workload.prepare()

        # One operation first lets caches fill and lazy set-up finish; its
        # outputs are checked, its time is not reported.
        ctx = Context(tracer)
        workload.step(ctx)
        ctx.phase = UNTRACED
        if tracer is None:
            measure(workload, ctx, args.seconds)
        else:
            measure(workload, ctx, args.seconds / 2)
            ctx.phase = TRACED
            measure(workload, ctx, args.seconds / 2)
        # Before the oracles, whose ground-truth arrays are not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.finish(ctx)
    finally:
        workload.close()

    import numpy

    extras: dict[str, dict] = {}
    if tracer is None:
        metrics, extras = end_to_end(ctx, cls.RATE_WINDOW, cls.LATENCY_WINDOW)
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        metrics = layer_metrics(tracer, ctx, workload, import_s, calibrate_s)
        if args.chrome_trace:
            tracer.write_chrome_trace(args.chrome_trace)
        tracer.unwrap()
    result = {
        "metrics": metrics,
        "extras": extras,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "missing_entry_points": missing,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(RESULT, json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
