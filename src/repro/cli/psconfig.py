"""psconfig: read or write sensor configuration values.

Simulation analogue of the paper's ``psconfig`` executable: after
installing firmware, this tool writes the conversion values (and is the
front-end of the guided calibration procedure); it can also reboot the
device, optionally to DFU mode.
"""

from __future__ import annotations

import argparse

from repro.calibration.procedure import calibrate_all
from repro.cli.common import (
    add_device_arguments,
    build_fleet,
    member_prefix,
    run_with_diagnostics,
)
from repro.common.errors import ConfigurationError
from repro.core.replay import TapeSetup
from repro.firmware.commands import Command
from repro.observability import MetricsRegistry, Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psconfig", description="Configure a PowerSensor3 device."
    )
    add_device_arguments(parser)
    parser.add_argument("--sensor", type=int, help="sensor index (0..7) to modify")
    parser.add_argument("--name", help="set the sensor name")
    parser.add_argument("--pair-name", help="set the pair name")
    parser.add_argument("--vref", type=float, help="set the reference voltage")
    parser.add_argument("--slope", type=float, help="set sensitivity/gain")
    parser.add_argument(
        "--enable", choices=("on", "off"), help="enable or disable the sensor"
    )
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help="run the guided one-time calibration on all populated slots",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=128 * 1024,
        help="samples to average per calibration point (paper: 128k)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="sweep each calibrated slot and check it against its error budget",
    )
    parser.add_argument("--reboot", action="store_true", help="reboot the device")
    parser.add_argument(
        "--dfu", action="store_true", help="reboot into DFU mode (firmware upload)"
    )
    args = parser.parse_args(argv)
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    return run_with_diagnostics(
        "psconfig",
        lambda: _configure(args, registry, tracer),
        metrics_path=args.metrics,
        registry=registry,
        tracer=tracer,
    )


def _configure(
    args: argparse.Namespace, registry: MetricsRegistry, tracer: Tracer
) -> int:
    with build_fleet(args, registry, tracer) as fleet:
        for name, member in fleet.members.items():
            _apply(args, member.bench, member_prefix(fleet, name))
        return 0


def _collect_changes(args: argparse.Namespace) -> dict:
    changes = {}
    if args.name is not None:
        changes["name"] = args.name
    if args.pair_name is not None:
        changes["pair_name"] = args.pair_name
    if args.vref is not None:
        changes["vref"] = args.vref
    if args.slope is not None:
        changes["slope"] = args.slope
    if args.enable is not None:
        changes["enabled"] = args.enable == "on"
    return changes


def _apply(args: argparse.Namespace, setup, prefix: str) -> None:
    """Run the requested actions on one bench; ``prefix`` starts each line."""
    ps = setup.ps
    if isinstance(setup, TapeSetup) and (
        args.calibrate or args.verify or args.reboot or args.dfu
    ):
        raise ConfigurationError(
            "a recorded tape has no device to calibrate, verify or reboot"
        )

    if args.calibrate:
        print(f"{prefix}calibrating with {args.samples} samples per point...")
        results = calibrate_all(setup.baseboard, setup.eeprom, n_samples=args.samples)
        for result in results:
            print(
                f"{prefix}  slot {result.slot}: vref={result.vref_volts:.5f} V "
                f"(offset {result.offset_correction_volts * 1e3:+.2f} mV), "
                f"voltage gain={result.voltage_gain:.5f}"
            )
        # The device answers config reads only while not streaming.
        ps.source.stop()
        ps.source.refresh_configs()
        ps.source.start()

    if args.verify:
        from repro.calibration.verification import verify_all

        print(f"{prefix}verifying calibration against the worst-case error budget...")
        for report in verify_all(setup.baseboard, setup.eeprom):
            verdict = "PASS" if report.passed else "FAIL"
            print(
                f"{prefix}  slot {report.slot}: worst mean error "
                f"{report.worst_mean_error:.3f} W, worst sample error "
                f"{report.worst_sample_error:.3f} W "
                f"(budget ±{report.bound_watts:.2f} W) -> {verdict}"
            )

    if args.sensor is not None:
        changes = _collect_changes(args)
        if not changes:
            print(f"{prefix}{ps.get_config(args.sensor)}")
        else:
            cfg = ps.set_config(args.sensor, **changes)
            print(f"{prefix}sensor {args.sensor} updated: {cfg}")

    if args.reboot or args.dfu:
        if setup.link is not None:
            command = Command.REBOOT_DFU if args.dfu else Command.REBOOT
            setup.link.write(command.value)
            mode = "DFU mode" if args.dfu else "normal mode"
            print(f"{prefix}device rebooted to {mode}")
        else:
            print(f"{prefix}direct-path bench has no device to reboot")


if __name__ == "__main__":
    raise SystemExit(main())
