"""pstest: measure and report power/energy at increasing intervals.

Simulation analogue of the paper's ``pstest``: the tool behind the
accuracy and stability measurements of Section IV.  It reports mean power
and energy over a geometric ladder of measurement intervals, and can
capture a fixed number of samples to a dump file (the paper's experiments
capture 128 k samples per point).
"""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_device_arguments,
    build_fleet,
    member_paths,
    member_prefix,
    run_with_diagnostics,
)
from repro.common.errors import MeasurementError
from repro.common.stats import summarize
from repro.core.state import joules, seconds
from repro.observability import MetricsRegistry, Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pstest", description="PowerSensor3 self-test measurements."
    )
    add_device_arguments(parser)
    parser.add_argument(
        "--intervals",
        type=int,
        default=10,
        help="number of doubling intervals to report (starting at 1 ms)",
    )
    parser.add_argument(
        "--capture",
        type=int,
        metavar="N",
        help="capture N samples and report min/max/std of pair-0 power",
    )
    parser.add_argument("--dump", metavar="FILE", help="write samples to a dump file")
    args = parser.parse_args(argv)
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    return run_with_diagnostics(
        "pstest",
        lambda: _selftest(args, registry, tracer),
        metrics_path=args.metrics,
        registry=registry,
        tracer=tracer,
    )


def _selftest(
    args: argparse.Namespace, registry: MetricsRegistry, tracer: Tracer
) -> int:
    with build_fleet(args, registry, tracer) as fleet:
        if args.dump:
            for name, path in member_paths(fleet, args.dump).items():
                fleet[name].ps.dump(path)

        interval = 0.001
        print(f"{'interval':>12} {'energy':>12} {'power':>10}")
        for _ in range(args.intervals):
            before = fleet.read()
            fleet.read_all(interval)
            after = fleet.read()
            # The measured stream time, not the nominal interval: members
            # advance together, and a tape that ran dry adds no time.
            spans = [(before[name], after[name]) for name in fleet.names]
            elapsed = max(seconds(a, b) for a, b in spans)
            energy = sum(joules(a, b) for a, b in spans)
            if elapsed <= 0:
                raise MeasurementError(f"no samples arrived in a {interval:g} s read")
            print(f"{elapsed:>10.4f} s {energy:>10.4f} J {energy / elapsed:>9.3f} W")
            interval *= 2

        if args.capture:
            for name, member in fleet.members.items():
                power = member.ps.pump(args.capture).pair_power(0)
                if not power.size:
                    continue  # a tape that ran dry
                summary = summarize(power)
                print(
                    f"\n{member_prefix(fleet, name)}captured {summary.count} samples: "
                    f"mean={summary.mean:.4f} W min={summary.minimum:.4f} W "
                    f"max={summary.maximum:.4f} W p-p={summary.peak_to_peak:.4f} W "
                    f"std={summary.std:.4f} W"
                )
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
