"""psserve: serve one or more PowerSensor devices to many subscribers.

The daemon assembles the usual simulated bench (``--modules``, ``--dut``,
``--seed``, optional ``--faults`` on the device link), served as
``device0`` — or a whole fleet of devices from repeated ``--device SPEC``
flags — then listens on a TCP or Unix socket and fans each device's
stream out to every connected client (``psrun --remote``, ``psmonitor
--remote``, the PMT remote backend, or any
:class:`~repro.server.RemoteSampleSource`; clients pick a device by name
in the subscription).  See ``docs/serving.md`` for the wire protocol and
backpressure policies.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import (
    add_device_arguments,
    build_fleet,
    report_health,
    run_with_diagnostics,
)
from repro.observability import MetricsRegistry, Tracer
from repro.server.daemon import DEFAULT_CHUNK, PowerSensorServer
from repro.server.ring import POLICIES
from repro.transport.shm import DEFAULT_BATCH


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psserve",
        description="Serve a (simulated) PowerSensor3 stream to N subscribers.",
    )
    add_device_arguments(parser, remote=False)
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT|unix:PATH",
        default="127.0.0.1:9753",
        help="endpoint to serve on (TCP port 0 picks a free port)",
    )
    parser.add_argument(
        "--policy",
        choices=POLICIES,
        default="block",
        help="backpressure policy for slow subscribers",
    )
    parser.add_argument(
        "--buffer-frames",
        type=int,
        default=256,
        metavar="N",
        help="frames retained by each device's raw ring and by each "
        "(device, window) ring",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=DEFAULT_CHUNK,
        metavar="N",
        help="samples per DATA frame and per window fold; a paced server reads "
        "one chunk per device read, --fast as many whole chunks as fit in "
        f"{DEFAULT_BATCH} samples",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve this many simulated seconds, then send EOS and exit "
        "(default: serve until interrupted)",
    )
    parser.add_argument(
        "--wait-clients",
        type=int,
        default=0,
        metavar="N",
        help="hold the pump until N subscribers have started streaming",
    )
    parser.add_argument(
        "--max-clients",
        type=int,
        default=64,
        metavar="N",
        help="refuse subscribers beyond this many concurrent clients",
    )
    parser.add_argument(
        "--client-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="handshake timeout, and how long the pump waits on a "
        "block-policy subscriber at ring capacity before evicting it",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="wall-clock seconds per simulated second (1.0 = real time)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="pump as fast as possible instead of pacing to --time-scale",
    )
    parser.add_argument(
        "--record-store",
        metavar="DIR",
        default=None,
        help="record every pumped sample into a telemetry store under "
        "DIR (one per-device subdirectory) and serve HISTORY queries "
        "from it",
    )
    parser.add_argument(
        "--store-roll",
        type=int,
        default=1_000_000,
        metavar="N",
        help="seal a store segment every N samples (with --record-store)",
    )
    args = parser.parse_args(argv)
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    return run_with_diagnostics(
        "psserve",
        lambda: _serve(args, registry, tracer),
        metrics_path=args.metrics,
        registry=registry,
        tracer=tracer,
    )


def _serve(args: argparse.Namespace, registry: MetricsRegistry, tracer: Tracer) -> int:
    with build_fleet(args, registry, tracer) as fleet:
        server = PowerSensorServer(
            fleet.sources(),
            args.listen,
            policy=args.policy,
            buffer_frames=args.buffer_frames,
            chunk=args.chunk,
            client_timeout=args.client_timeout,
            max_clients=args.max_clients,
            time_scale=0.0 if args.fast else args.time_scale,
            wait_clients=args.wait_clients,
            record_store=args.record_store,
            store_roll=args.store_roll,
            registry=registry,
            tracer=tracer,
        )
        with server:
            names = ", ".join(server.devices)
            print(
                f"psserve: serving {len(server.devices)} device(s) [{names}] "
                f"on {server.address}",
                file=sys.stderr,
                flush=True,
            )
            try:
                stats = server.serve(duration=args.duration)
            except KeyboardInterrupt:
                stats = server.finish(reason="interrupted")
        print(
            f"psserve: {stats['samples_produced']} samples to "
            f"{stats['clients_served']} client(s), "
            f"{stats['clients_evicted']} evicted ({stats['reason']})",
            file=sys.stderr,
        )
        report_health(fleet)
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
