"""psinfo: show sensor configuration, latest measurements, total power.

Simulation analogue of the paper's ``psinfo`` executable (Section III-C).
"""

from __future__ import annotations

import argparse

from repro.cli.common import add_device_arguments, build_fleet, run_with_diagnostics
from repro.observability import MetricsRegistry, Tracer, summarize_registry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psinfo", description="Show PowerSensor3 configuration and readings."
    )
    add_device_arguments(parser, metrics=False)
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        nargs="?",
        const="-",
        default=None,
        help="print a metrics summary after the report; with a PATH, also "
        "write the metrics file (.prom: Prometheus text, else JSON lines)",
    )
    args = parser.parse_args(argv)
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    metrics_path = args.metrics if args.metrics not in (None, "-") else None
    return run_with_diagnostics(
        "psinfo",
        lambda: _show(args, registry, tracer),
        metrics_path=metrics_path,
        registry=registry,
        tracer=tracer,
    )


def _show(args: argparse.Namespace, registry: MetricsRegistry, tracer: Tracer) -> int:
    with build_fleet(args, registry, tracer) as fleet:
        fleet.read_all(0.05)  # a short burst of fresh samples, every device
        states = fleet.read()
        several = len(fleet) > 1
        for name, member in fleet.members.items():
            if several:
                print(f"=== device {name} ===")
            _report_device(member.ps, states[name])
            if several:
                print()
        if several:
            print(
                f"fleet total power: {states.total_power:.3f} W "
                f"across {len(fleet)} device(s)"
            )
        if args.metrics is not None:
            print()
            print(summarize_registry(registry))
        return 0


def _report_device(ps, state) -> None:
    print(f"device    : {ps.source.version}")
    print(f"sample rate: {ps.sample_rate:.0f} Hz")
    print()
    print(f"{'sensor':<8} {'name':<12} {'pair':<16} {'vref':>8} {'slope':>10} {'enabled':>8}")
    for i in range(8):
        cfg = ps.get_config(i)
        print(
            f"{i:<8} {cfg.name:<12} {cfg.pair_name:<16} "
            f"{cfg.vref:>8.4f} {cfg.slope:>10.5f} {str(cfg.enabled):>8}"
        )
    print()
    print(f"{'pair':<6} {'volts':>9} {'amps':>9} {'watts':>9}")
    for pair in range(4):
        if not (ps.get_config(2 * pair).enabled and ps.get_config(2 * pair + 1).enabled):
            continue
        print(
            f"{pair:<6} {state.voltage[pair]:>9.3f} "
            f"{state.current[pair]:>9.3f} {state.pair_power(pair):>9.3f}"
        )
    print(f"\ntotal power: {state.total_power:.3f} W")
    if ps.health.degraded:
        print(f"stream health: {ps.health.summary()}")


if __name__ == "__main__":
    raise SystemExit(main())
