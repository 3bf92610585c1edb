"""Streaming hot-path benchmarks: wire decode, read_block, dump I/O.

These benchmark the host-side receive pipeline in isolation from the
device simulation: the wire bytes are pre-produced once by the simulated
firmware and then replayed into the decoder each round, so the numbers
measure decoding (the part the host library controls), not the cost of
synthesising ADC noise.  ``benchmarks/streaming_report.py`` runs the same
workloads standalone and records before/after numbers in
``BENCH_streaming.json``.

Run with::

    pytest benchmarks/bench_streaming.py --benchmark-only
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.dump import DumpReader, DumpWriter
from repro.core.setup import SimulatedSetup
from repro.firmware.protocol import BlockDecoder
from repro.observability import MetricsRegistry

_MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]


def _bench_setup(
    n_pairs: int,
    registry: MetricsRegistry | None = None,
) -> SimulatedSetup:
    setup = SimulatedSetup(
        _MODULES[:n_pairs],
        seed=0,
        calibration_samples=1024,
        registry=registry,
    )
    setup.source.start()
    return setup


def _produce_stream(setup: SimulatedSetup, n_samples: int) -> bytes:
    return setup.link.firmware.produce(n_samples)


@pytest.fixture(scope="module")
def four_pair_stream():
    """100k samples of 4-pair wire bytes, produced once."""
    setup = _bench_setup(4)
    data = _produce_stream(setup, 100_000)
    yield setup, data
    setup.close()


@pytest.fixture(scope="module")
def one_pair_stream():
    setup = _bench_setup(1)
    data = _produce_stream(setup, 100_000)
    yield setup, data
    setup.close()


def test_bench_block_decoder_wire_throughput(benchmark, four_pair_stream):
    """Raw packet framing: bytes -> DecodedBlock arrays."""
    _, data = four_pair_stream
    decoder = BlockDecoder()
    block = benchmark(decoder.decode, data)
    assert len(block) == 100_000 * 9  # timestamp + 8 sensor packets
    benchmark.extra_info["MB_per_s"] = round(
        len(data) / 1e6 / benchmark.stats["mean"], 1
    )


@pytest.mark.parametrize(
    "stream_fixture,n_pairs",
    [("one_pair_stream", 1), ("four_pair_stream", 4)],
)
def test_bench_read_block_decode(benchmark, request, stream_fixture, n_pairs):
    """Full decode pipeline: wire bytes -> SampleBlock in physical units."""
    setup, data = request.getfixturevalue(stream_fixture)
    source = setup.source
    block = benchmark(source._decode, data, 100_000)
    assert len(block) == 100_000
    benchmark.extra_info["samples_per_s"] = round(
        100_000 / benchmark.stats["mean"]
    )
    benchmark.extra_info["n_pairs"] = n_pairs


def test_bench_decode_metrics_disabled(benchmark, four_pair_stream):
    """Same decode workload with the metrics layer muted.

    Compare ``samples_per_s`` against the 4-pair case of
    ``test_bench_read_block_decode`` (which runs with the default
    enabled registry) to see the observability overhead; the standalone
    report pins the delta at <= 5% in ``BENCH_streaming.json``.
    """
    _, data = four_pair_stream
    setup = _bench_setup(4, registry=MetricsRegistry(enabled=False))
    source = setup.source
    block = benchmark(source._decode, data, 100_000)
    assert len(block) == 100_000
    benchmark.extra_info["samples_per_s"] = round(
        100_000 / benchmark.stats["mean"]
    )
    setup.close()


@pytest.fixture(scope="module")
def dump_payload():
    rng = np.random.default_rng(0)
    n = 100_000
    times = np.arange(n) * 5e-5
    volts = rng.uniform(0.0, 13.0, size=(n, 4))
    amps = rng.uniform(0.0, 20.0, size=(n, 4))
    return times, volts, amps


def test_bench_dump_write(benchmark, dump_payload, tmp_path):
    times, volts, amps = dump_payload

    def write():
        writer = DumpWriter(tmp_path / "bench.dump", ["a", "b", "c", "d"], 20_000.0)
        writer.write_samples(times, volts, amps)
        writer.close()

    benchmark(write)
    benchmark.extra_info["samples_per_s"] = round(
        times.size / benchmark.stats["mean"]
    )


def test_bench_dump_read(benchmark, dump_payload, tmp_path):
    times, volts, amps = dump_payload
    path = tmp_path / "bench.dump"
    writer = DumpWriter(path, ["a", "b", "c", "d"], 20_000.0)
    writer.write_samples(times, volts, amps)
    writer.close()

    data = benchmark(DumpReader.read, path)
    assert data.times.size == times.size
    assert np.array_equal(data.volts, np.round(volts, 5))
    benchmark.extra_info["samples_per_s"] = round(
        times.size / benchmark.stats["mean"]
    )


def test_bench_dump_read_general_path(benchmark, dump_payload):
    """Line-scan parse path (markers interleaved defeat the grid check)."""
    times, volts, amps = dump_payload
    buffer = io.StringIO()
    writer = DumpWriter(buffer, ["a", "b", "c", "d"], 20_000.0)
    half = times.size // 2
    writer.write_samples(times[:half], volts[:half], amps[:half])
    writer.write_marker(float(times[half]), "A")
    writer.write_samples(times[half:], volts[half:], amps[half:])
    text = buffer.getvalue()

    data = benchmark(lambda: DumpReader.read(io.StringIO(text)))
    assert data.times.size == times.size
    assert data.markers == [(round(float(times[half]), 7), "A")]
