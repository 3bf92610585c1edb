"""psplot: render a dump file — or a live capture — as an ASCII chart.

A convenience on top of continuous mode: visualise a 20 kHz capture in the
terminal, with markers annotated on the time axis.  (The real toolkit
leaves plotting to the user; this keeps the repository dependency-free.)

Without a dump file, psplot captures ``--seconds`` of stream from the
device the standard flags describe (``--modules``/``--dut``, ``--remote``,
``--faults``, repeatable ``--device`` specs) and plots that instead — one
chart per device.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.cli.common import add_device_arguments, build_fleet, run_with_diagnostics
from repro.common.errors import ConfigurationError
from repro.core.dump import DumpReader
from repro.observability import MetricsRegistry, Tracer


def render_chart(
    times: np.ndarray,
    watts: np.ndarray,
    width: int = 72,
    height: int = 16,
    markers: list[tuple[float, str]] | None = None,
) -> str:
    """Render (times, watts) as an ASCII chart; returns the chart text."""
    if times.size < 2:
        return "(not enough samples to plot)"
    # Reduce to one column per character: mean, min, max per bucket.
    edges = np.linspace(times[0], times[-1], width + 1)
    idx = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, width - 1)
    mean = np.zeros(width)
    lo = np.full(width, np.inf)
    hi = np.full(width, -np.inf)
    counts = np.bincount(idx, minlength=width).astype(float)
    sums = np.bincount(idx, weights=watts, minlength=width)
    occupied = counts > 0
    mean[occupied] = sums[occupied] / counts[occupied]
    np.minimum.at(lo, idx, watts)
    np.maximum.at(hi, idx, watts)
    mean[~occupied] = np.nan

    top = float(np.nanmax(hi[occupied])) if occupied.any() else 1.0
    bottom = float(np.nanmin(lo[occupied])) if occupied.any() else 0.0
    if top == bottom:
        top = bottom + 1.0
    span = top - bottom

    rows = []
    for row in range(height, 0, -1):
        level = bottom + span * (row - 0.5) / height
        cells = []
        for col in range(width):
            if not occupied[col]:
                cells.append(" ")
            elif lo[col] <= level <= hi[col]:
                near_mean = abs(mean[col] - level) <= span / height
                cells.append("#" if near_mean else "|")
            else:
                cells.append(" ")
        label = f"{level:8.1f} W |" if row in (1, height // 2, height) else " " * 10 + "|"
        rows.append(label + "".join(cells))

    axis = " " * 10 + "+" + "-" * width
    time_row = [" "] * width
    for t, char in markers or []:
        col = int((t - times[0]) / (times[-1] - times[0]) * (width - 1))
        if 0 <= col < width:
            time_row[col] = char
    footer = " " * 11 + "".join(time_row)
    span_label = (
        " " * 11 + f"{times[0]:.3f} s" + " " * max(width - 18, 1) + f"{times[-1]:.3f} s"
    )
    return "\n".join(rows + [axis, footer, span_label])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="psplot",
        description="ASCII-plot a PowerSensor3 dump file or a live capture.",
    )
    parser.add_argument(
        "dump",
        nargs="?",
        default=None,
        help="dump file written by continuous mode, or a telemetry store "
        "(store://DIR or a store directory); omit to capture live",
    )
    add_device_arguments(parser)
    parser.add_argument("--width", type=int, default=72)
    parser.add_argument("--height", type=int, default=16)
    parser.add_argument(
        "--pair", type=int, default=-1, help="pair index to plot (-1 = total)"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=1.0,
        help="live capture length in stream seconds (no dump file given)",
    )
    parser.add_argument(
        "--t0",
        type=float,
        default=None,
        metavar="SECONDS",
        help="window start for store / --history queries",
    )
    parser.add_argument(
        "--t1",
        type=float,
        default=None,
        metavar="SECONDS",
        help="window end for store / --history queries",
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=4096,
        metavar="N",
        help="tiered point budget for store / --history queries",
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="with --remote: plot the server's recorded history "
        "(needs psserve --record-store) instead of capturing live",
    )
    args = parser.parse_args(argv)
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    return run_with_diagnostics(
        "psplot",
        lambda: _plot(args, parser, registry, tracer),
        metrics_path=args.metrics,
        registry=registry,
        tracer=tracer,
    )


def _plot(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    registry: MetricsRegistry,
    tracer: Tracer,
) -> int:
    if args.dump is None:
        return _plot_live(args, registry, tracer)
    if args.dump.startswith("store://") or Path(args.dump).is_dir():
        return _plot_store(args, parser, registry, tracer)
    with tracer.span("read_dump"):
        data = DumpReader.read(args.dump)
    registry.gauge(
        "plot_samples", help="samples loaded from the dump file"
    ).set(data.times.size)
    if args.pair == -1:
        watts = data.total_power
        label = "total"
    else:
        if not 0 <= args.pair < data.volts.shape[1]:
            parser.error(f"pair {args.pair} not in the dump")
        watts = data.volts[:, args.pair] * data.amps[:, args.pair]
        label = data.pair_names[args.pair]
    print(
        f"{label}: {data.times.size} samples at {data.sample_rate_hz:.0f} Hz, "
        f"mean {watts.mean():.2f} W"
    )
    with tracer.span("render"):
        chart = render_chart(data.times, watts, args.width, args.height, data.markers)
    print(chart)
    return 0


def _plot_store(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    registry: MetricsRegistry,
    tracer: Tracer,
) -> int:
    """Plot a time-range query against a local telemetry store."""
    from repro.store import TelemetryStore

    path = args.dump
    if path.startswith("store://"):
        path = path[len("store://") :].split("?", 1)[0]
    with tracer.span("read_store"):
        with TelemetryStore(path, registry=registry, tracer=tracer) as store:
            result = store.query(args.t0, args.t1, max(args.max_points, 1))
    _plot_result(args, tracer, result, label=f"store {path}")
    return 0


def _plot_result(
    args: argparse.Namespace, tracer: Tracer, result, label: str
) -> None:
    """Plot one StoreQueryResult (local store query or remote --history)."""
    if args.pair == -1:
        watts = result.total_power()
    else:
        if not 0 <= 2 * args.pair + 1 < result.values.shape[1]:
            raise ConfigurationError(f"pair {args.pair} out of range")
        watts = result.values[:, 2 * args.pair] * result.values[:, 2 * args.pair + 1]
        label = f"{label} pair {args.pair}"
    tier = "" if result.factor <= 1 else f" (tier 1/{result.factor}, bucket means)"
    mean = float(watts.mean()) if len(result) else 0.0
    print(
        f"{label}: {len(result)} rows covering {result.n_source} samples"
        f"{tier}, mean {mean:.2f} W"
    )
    marker_times = [(float(t), "M") for t in result.times[result.markers]]
    with tracer.span("render"):
        chart = render_chart(
            result.times, watts, args.width, args.height, marker_times
        )
    print(chart)


def _plot_live(
    args: argparse.Namespace, registry: MetricsRegistry, tracer: Tracer
) -> int:
    """Capture --seconds of stream from the described device(s) and plot."""
    with build_fleet(args, registry, tracer) as fleet:
        several = len(fleet) > 1
        if args.history:
            for name, member in fleet.members.items():
                link = getattr(member.bench, "link", None)
                if link is None or not hasattr(link, "query_history"):
                    raise ConfigurationError(
                        "--history queries a serving daemon's recorded store; "
                        "point psplot at one with --remote"
                    )
                result = link.query_history(args.t0, args.t1, max(args.max_points, 1))
                _plot_result(args, tracer, result, label=name if several else "history")
            return 0
        for name, block in fleet.read_all(args.seconds).items():
            _plot_block(args, tracer, block, label=name if several else "live")
        return 0


def _plot_block(args: argparse.Namespace, tracer: Tracer, block, label: str) -> None:
    if args.pair == -1:
        watts = block.total_power()
    else:
        watts = block.pair_power(args.pair)
        label = f"{label} pair {args.pair}"
    mean = float(watts.mean()) if len(block) else 0.0
    print(f"{label}: {len(block)} samples, mean {mean:.2f} W")
    marker_times = [(float(t), "M") for t in block.times[block.markers]]
    with tracer.span("render"):
        chart = render_chart(
            block.times, watts, args.width, args.height, marker_times
        )
    print(chart)


if __name__ == "__main__":
    raise SystemExit(main())
