"""Shared CLI plumbing: build the fleet of benches the flags describe.

The real tools take a serial device path; the simulated ones take a bench
description instead (``--modules``, ``--dut``) and assemble the same
objects the library API exposes.  Every run is a
:class:`~repro.core.fleet.Fleet`: repeatable ``--device SPEC`` flags
describe its members by URI (``sim://…``, ``remote://…``, ``replay://…``,
``store://…``), and the single-device flags become one such spec, a
fleet of one whose member is named ``device0``.  A tool prints a fleet of
one exactly as the real single-device tool does; member names and fleet
totals appear only with two or more members.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable
from urllib.parse import urlencode

from repro.common.errors import (
    CalibrationError,
    ConfigurationError,
    DeviceError,
    MeasurementError,
    ProtocolError,
    ReproError,
    ServerError,
    StreamStalledError,
    TransportError,
)
from repro.core.fleet import Fleet
from repro.dut.rails import DUT_SPEC_HELP
from repro.observability import MetricsRegistry, Tracer, write_metrics
from repro.transport.faults import FAULT_SPEC_HELP

#: Distinct exit statuses per failure domain, above the range commands and
#: argparse use, so scripts can tell *what* degraded without parsing text.
#: Ordered most-specific first (``exit_status`` walks it with isinstance).
EXIT_STATUSES: list[tuple[type[ReproError], int]] = [
    (StreamStalledError, 69),
    (MeasurementError, 70),
    (TransportError, 71),
    (ProtocolError, 72),
    (DeviceError, 73),
    (ConfigurationError, 74),
    (CalibrationError, 75),
    (ServerError, 76),
]

#: Fallback for a bare :class:`ReproError`.
EXIT_REPRO_ERROR = 68


def exit_status(error: ReproError) -> int:
    """Map a library error to its documented CLI exit status."""
    for cls, code in EXIT_STATUSES:
        if isinstance(error, cls):
            return code
    return EXIT_REPRO_ERROR


def run_with_diagnostics(
    prog: str,
    body: Callable[[], int],
    *,
    metrics_path: str | None = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> int:
    """Run a CLI body, degrading library errors to one-line diagnostics.

    Any :class:`ReproError` escaping ``body`` becomes a single stderr line
    and the matching nonzero exit status — never a traceback.

    When ``metrics_path`` and ``registry`` are given, a metrics file is
    written unconditionally on the way out — a degraded run (nonzero exit
    status) still leaves its counters behind for post-mortem analysis.
    """
    status = 0
    try:
        status = body()
        return status
    except ReproError as error:
        print(f"{prog}: {type(error).__name__}: {error}", file=sys.stderr)
        status = exit_status(error)
        return status
    finally:
        if metrics_path and registry is not None:
            try:
                write_metrics(
                    metrics_path,
                    registry,
                    tracer=tracer,
                    meta={"tool": prog, "exit_status": status},
                )
            except OSError as error:
                print(f"{prog}: cannot write metrics: {error}", file=sys.stderr)


def add_device_arguments(
    parser: argparse.ArgumentParser, metrics: bool = True, remote: bool = True
) -> None:
    parser.add_argument(
        "--device",
        metavar="SPEC",
        action="append",
        default=None,
        dest="devices",
        help="device URI spec: 'sim://MODULES?dut=…&seed=…', "
        "'remote://HOST:PORT?device=NAME', 'replay://DUMP?speed=…', "
        "'store://DIR?t0=…&t1=…'; "
        "repeat for a multi-device fleet (name members with 'device=…'; "
        "overrides --modules/--dut/--remote)",
    )
    parser.add_argument(
        "--modules",
        default="pcie_slot_12v",
        help="comma-separated sensor module keys for slots 0..3 "
        "(use 'none' to leave a slot empty)",
    )
    parser.add_argument(
        "--dut",
        default="load:8.0@12.0",
        help=f"device under test on slot 0: {DUT_SPEC_HELP}",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--direct",
        action="store_true",
        help="use the vectorised sample path instead of the byte protocol",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=f"inject link faults ({FAULT_SPEC_HELP}); protocol path only",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the fault generator (defaults to --seed)",
    )
    if remote:
        parser.add_argument(
            "--remote",
            metavar="HOST:PORT|unix:PATH",
            default=None,
            help="read the shared stream from a running psserve daemon "
            "instead of simulating a device locally (--modules/--dut/"
            "--seed then apply on the serving side; --faults injects on "
            "the client's receive path)",
        )
        parser.add_argument(
            "--remote-window",
            type=int,
            metavar="N",
            default=0,
            help="with --remote: subscribe to server-side averaged windows "
            "of N samples instead of the raw 20 kHz stream",
        )
    if metrics:
        parser.add_argument(
            "--metrics",
            metavar="PATH",
            default=None,
            help="write a metrics file on exit (.prom: Prometheus text, "
            "otherwise one JSON snapshot line is appended)",
        )


def _device_spec(args: argparse.Namespace) -> str:
    """The single-device flags as one URI device spec.

    ``--remote TARGET`` maps to ``remote://TARGET?window=…&faults=…``;
    otherwise the bench flags map to ``sim://MODULES?dut=…&seed=…``.
    """
    query = {"faults": args.faults, "fault_seed": args.fault_seed}
    remote = getattr(args, "remote", None)
    if remote:
        if args.direct:
            raise ConfigurationError(
                "--remote streams device bytes; it cannot combine with --direct"
            )
        spec = f"remote://{remote}"
        query["window"] = args.remote_window or None
    else:
        spec = f"sim://{args.modules}"
        query.update(dut=args.dut, seed=args.seed, direct=int(args.direct) or None)
    return f"{spec}?{urlencode({k: v for k, v in query.items() if v is not None})}"


def build_fleet(
    args: argparse.Namespace,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> Fleet:
    """The fleet the flags describe: one member per ``--device`` spec, or
    one member for the single-device flags."""
    specs = getattr(args, "devices", None) or [_device_spec(args)]
    return Fleet.from_specs(specs, registry=registry, tracer=tracer)


def member_prefix(fleet: Fleet, name: str) -> str:
    """What starts a member's output lines: ``"NAME: "`` in a fleet of
    several devices, nothing in a fleet of one."""
    return f"{name}: " if len(fleet) > 1 else ""


def report_health(fleet: Fleet) -> None:
    """One ``stream health: …`` stderr line per member that needed recovery."""
    for name, health in fleet.health().items():
        if health.degraded:
            prefix = member_prefix(fleet, name)
            print(f"{prefix}stream health: {health.summary()}", file=sys.stderr)


def member_paths(fleet: Fleet, path: str, subdir: bool = False) -> dict[str, str]:
    """Each member's output file: ``path`` itself in a fleet of one, else
    ``DIR/NAME`` (``subdir``) or ``out.txt`` -> ``out.NAME.txt``."""
    if len(fleet) == 1:
        return dict.fromkeys(fleet.names, path)
    base = Path(path)
    return {
        name: str(base / name if subdir else base.with_suffix(f".{name}{base.suffix}"))
        for name in fleet.names
    }
