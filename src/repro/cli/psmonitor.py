"""psmonitor: live power statistics from a running measurement.

Streams the bench in (simulated) real time and prints rolling per-second
statistics — mean/min/max/std per pair and total energy — using O(1)
memory (the 20 kHz stream is folded into streaming accumulators rather
than stored).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.streaming import StreamingPowerMonitor, StreamingStats
from repro.cli.common import (
    add_device_arguments,
    build_fleet,
    member_prefix,
    report_health,
    run_with_diagnostics,
)
from repro.core.health import StreamHealth
from repro.observability import MetricsRegistry, Tracer


def format_stats_line(
    health: StreamHealth, registry: MetricsRegistry, device: str
) -> str:
    """The live stats line: stream health plus decode throughput.

    One fixed-format stderr line per device and reporting interval, e.g.::

        stats: samples=19999 dropped=0 retries=0 gaps=0 sps=3.1e+06
    """
    sps = registry.value("decode_samples_per_second", default=0.0, device=device)
    return (
        f"stats: samples={health.samples_decoded} "
        f"dropped={health.packets_dropped} "
        f"retries={health.retries} "
        f"gaps={health.gaps_bridged} "
        f"sps={sps:.2g}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psmonitor", description="Live PowerSensor3 statistics."
    )
    add_device_arguments(parser)
    parser.add_argument(
        "--duration", type=float, default=5.0, help="seconds to monitor"
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, help="reporting interval (s)"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="run at full simulation speed instead of wall-clock pacing",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0 or args.duration <= 0:
        parser.error("duration and interval must be positive")
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    return run_with_diagnostics(
        "psmonitor",
        lambda: _monitor(args, registry, tracer),
        metrics_path=args.metrics,
        registry=registry,
        tracer=tracer,
    )


def _monitor(
    args: argparse.Namespace, registry: MetricsRegistry, tracer: Tracer
) -> int:
    with build_fleet(args, registry, tracer) as fleet:
        # One row per device and interval; a fleet adds a device column.
        column = "  {}" if len(fleet) > 1 else ""
        monitors = {name: StreamingPowerMonitor() for name in fleet.names}
        print(
            f"{'t':>6} {'mean W':>9} {'min W':>9} {'max W':>9} {'std W':>8} "
            f"{'energy J':>10}{column.format('device')}"
        )

        elapsed = 0.0
        while elapsed < args.duration:
            span = min(args.interval, args.duration - elapsed)
            for name, block in fleet.read_all(span).items():
                monitor = monitors[name]
                monitor.update(block)
                if len(block):
                    window = StreamingStats()
                    window.update(block.total_power())
                    print(
                        f"{elapsed + span:5.1f}s {window.mean:9.3f} "
                        f"{window.minimum:9.3f} {window.maximum:9.3f} "
                        f"{window.std:8.3f} {monitor.energy_joules:10.3f}"
                        f"{column.format(name)}"
                    )
                stats = format_stats_line(fleet[name].health, registry, name)
                print(f"{member_prefix(fleet, name)}{stats}", file=sys.stderr)
            elapsed += span
            if not args.fast:
                time.sleep(span)

        print()
        for name, monitor in monitors.items():
            total = monitor.total
            print(
                f"{member_prefix(fleet, name)}{total.count} samples: "
                f"mean {total.mean:.3f} W "
                f"(p-p {total.peak_to_peak:.3f} W, std {total.std:.3f} W), "
                f"total energy {monitor.energy_joules:.3f} J"
            )
        if len(fleet) > 1:
            energy = sum(monitor.energy_joules for monitor in monitors.values())
            print(f"fleet energy: {energy:.3f} J across {len(fleet)} device(s)")
        report_health(fleet)
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
