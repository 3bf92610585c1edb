"""psrun: run a command and report the energy consumed while it ran.

Simulation analogue of the paper's ``psrun`` (Section III-C): connects to
the device, runs the given executable, and reports total energy and mean
power over the execution.  The measured device is the *simulated* bench
(see ``--dut``), pumped in real time while the command runs.

``psrun`` propagates the wrapped command's exit code; measurement
failures degrade to a one-line diagnostic with a distinct exit status
(see ``repro.cli.common.EXIT_STATUSES``) instead of a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import subprocess
import sys

from repro.cli.common import (
    add_device_arguments,
    build_fleet,
    member_paths,
    member_prefix,
    report_health,
    run_with_diagnostics,
)
from repro.core.realtime import RealtimeDriver
from repro.core.state import State, joules, seconds, watts
from repro.observability import MetricsRegistry, Tracer

#: Exit status when the wrapped command itself cannot be launched.
EXIT_COMMAND_NOT_RUN = 127


def format_measurement(before: State, after: State) -> str:
    """Render the interval measurement, tolerating a zero-length interval.

    A command can finish before a single new sample arrives; the interval
    is then empty (dt=0) and mean power is undefined, not an error.
    """
    duration = seconds(before, after)
    if duration <= 0:
        return "0.000 s, 0.000 J, n/a W"
    return (
        f"{duration:.3f} s, {joules(before, after):.3f} J, "
        f"{watts(before, after):.3f} W"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psrun",
        description="Run a command while measuring (simulated) power.",
    )
    add_device_arguments(parser)
    parser.add_argument(
        "--dump", metavar="FILE", help="also record all samples to a dump file"
    )
    parser.add_argument(
        "--record-store",
        metavar="DIR",
        help="also record all samples into a binary telemetry store at "
        "DIR (queryable, and replayable via store://DIR)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="simulated seconds per wall-clock second",
    )
    parser.add_argument("command", nargs=argparse.REMAINDER, help="command to run")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("no command given")
    command = args.command[1:] if args.command[0] == "--" else args.command
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    return run_with_diagnostics(
        "psrun",
        lambda: _measure(args, command, registry, tracer),
        metrics_path=args.metrics,
        registry=registry,
        tracer=tracer,
    )


def _measure(
    args: argparse.Namespace,
    command: list[str],
    registry: MetricsRegistry,
    tracer: Tracer,
) -> int:
    with build_fleet(args, registry, tracer) as fleet, contextlib.ExitStack() as stack:
        if args.dump:
            for name, path in member_paths(fleet, args.dump).items():
                fleet[name].ps.dump(path)
        if args.record_store:
            stores = member_paths(fleet, args.record_store, subdir=True)
            for name, path in stores.items():
                fleet[name].ps.record(path)
        drivers = {
            name: stack.enter_context(
                RealtimeDriver(member.ps, time_scale=args.time_scale)
            )
            for name, member in fleet.members.items()
        }
        before = {name: driver.read() for name, driver in drivers.items()}
        try:
            with tracer.span("command"):
                completed = subprocess.run(command)
        except OSError as error:
            print(f"psrun: cannot run {command[0]!r}: {error}", file=sys.stderr)
            return EXIT_COMMAND_NOT_RUN
        after = {name: driver.read() for name, driver in drivers.items()}
        stack.close()  # stop the pumps before reporting

        print(f"exit status: {completed.returncode}", file=sys.stderr)
        for name in fleet.names:
            measured = format_measurement(before[name], after[name])
            print(f"{member_prefix(fleet, name)}{measured}")
        if len(fleet) > 1:
            total = sum(joules(before[name], after[name]) for name in fleet.names)
            print(f"fleet total: {total:.3f} J across {len(fleet)} device(s)")
        report_health(fleet)
        return completed.returncode


if __name__ == "__main__":
    raise SystemExit(main())
