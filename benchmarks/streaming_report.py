"""Measure the streaming hot path and write ``BENCH_streaming.json``.

Usage::

    PYTHONPATH=src python benchmarks/streaming_report.py [--samples N]

The report compares three stages of the receive/persist pipeline:

* **decode** — wire bytes to ``SampleBlock`` through the vectorised
  block decoder on pre-produced 4-pair streams, against the recorded
  throughput of the scalar decoder it replaced.
* **read_block** — the full pull path including the simulated device
  producing the bytes (the device side bounds this number; the host-side
  share is the decode row above).
* **producer** — ``read_block`` through the shared producer ring
  (``producer=`` specs): the consumer path against a ring pre-filled by
  a forked producer (what the ring buys once a producer core keeps it
  ahead), and the honest single-core sustained rate on the plain path,
  which gives the same stream.
* **dump I/O** — ``DumpWriter``/``DumpReader`` on a tmpfs file, against
  the recorded throughput of the row-loop writer and the pure
  ``np.loadtxt`` reader they replaced.
* **observability** — the same decode workload with the metrics layer
  enabled (spans, gauges, health counters) and disabled
  (``MetricsRegistry(enabled=False)``): the ``overhead_pct`` delta is
  the cost of instrumenting the hot path, and the registry snapshot of
  the enabled run rides along in the report.
* **server** — the psserve fan-out layer: 64 ``RemoteSampleSource``
  subscribers on a Unix socket under the ``drop-oldest`` policy (each
  must sustain the device's full 20 kHz with zero dropped frames), and
  the single-client remote read path against a local
  ``ProtocolSampleSource`` pulling the same samples (the remote decode
  overhead must stay within 2x local).  These are wall-clock runs of a
  live daemon, so they report single measurements, not best-of.  The
  ``scaling`` sub-section drives the asyncio broadcast-ring core with
  the lightweight :mod:`repro.server.loadgen` swarm instead of full
  client stacks: a 64/256/1024-subscriber curve under ``drop-oldest``
  (1024 subscribers must clear 20 kHz aggregate delivery) and a 64/256
  curve under ``block`` (which must stay lossless), with the ring's
  encode counter proving each frame was encoded exactly once no matter
  how many subscribers received it.
* **fleet** — four mixed devices (two simulated benches, a looped replay
  tape, a re-served remote member) behind one psserve endpoint with one
  subscriber per device: every device must sustain its full 20 kHz with
  zero dropped frames.
* **store** — the columnar telemetry store on a 10M-row recording
  (``10 * --samples``): append-path ingest rate, a cold tiered
  time-range query (``max_points=1000``, which must answer in
  milliseconds from the seal-time min/mean/max tiers), and the
  equivalent full-resolution scan it replaces (``tiered_speedup``).
* **storage** — energy per IO through the declarative job-file runner
  (``psfio``): a format + precondition + steady-state random-write +
  random-read job file swept over two FTL mapping policies, each job
  measured through the simulated PowerSensor3.  The regression gate
  tracks the per-policy joules-per-IO (energy efficiency must not
  silently erode) and that steady-state detection still terminates.

Timings are best-of-``--repeat`` wall-clock; the JSON lands at the repo
root so the numbers ride along with the code that produced them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.dump import DumpReader, DumpWriter
from repro.core.setup import SimulatedSetup
from repro.observability import MetricsRegistry
from repro.transport import shm

_MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]

#: Throughput of the implementations the vectorised decoder and dump I/O
#: replaced, measured on the same workload (1M samples / rows, 4 pairs) at
#: the pre-optimisation commit.  Those code paths no longer exist, so
#: their numbers are recorded here and every speedup is taken against them.
RECORDED_BASELINES = {
    "decode_scalar_samples_per_s": 70_541,
    "dump_write_samples_per_s": 169_772,
    "dump_read_samples_per_s": 349_073,
    "dump_roundtrip_samples_per_s": 114_217,
}


def best_of(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_decode(n_samples: int, repeat: int) -> dict:
    setup = SimulatedSetup(_MODULES, seed=0, calibration_samples=1024)
    setup.source.start()
    data = setup.link.firmware.produce(n_samples)
    source = setup.source

    vec_t = best_of(lambda: source._decode(data, n_samples), repeat)
    read_t = best_of(lambda: setup.source.read_block(50_000), repeat)
    setup.close()
    vec_rate = n_samples / vec_t
    return {
        "n_samples": n_samples,
        "n_pairs": 4,
        "wire_bytes": len(data),
        "vectorized_samples_per_s": round(vec_rate),
        "decode_speedup": round(
            vec_rate / RECORDED_BASELINES["decode_scalar_samples_per_s"], 1
        ),
        "read_block_samples_per_s": round(50_000 / read_t),
        "read_block_includes_device_simulation": True,
    }


def bench_producer(n_samples: int, repeat: int) -> dict:
    """End-to-end ``read_block`` with and without the producer ring.

    Two numbers, deliberately split:

    * ``read_block_samples_per_s`` — the consumer path alone (ring pop,
      zero-copy view into decode): a ``process`` producer pre-fills the
      ring and exactly the buffered records are timed, i.e. the steady
      state when a producer core keeps the ring ahead of the consumer.
      The simulation runs in the forked producer, never in the timed
      consumer.  This is what the ring buys architecturally and the
      number the regression gate tracks.
    * ``sustained_samples_per_s`` — production + consumption on one
      core through the plain path (no producer; the same stream): the
      honest single-CPU rate, bounded by device simulation.
    """
    batch = shm.DEFAULT_BATCH
    ring_bytes = 1 << 24  # room for ~900 k samples of 4-pair wire data
    default_ring, shm.DEFAULT_RING_BYTES = shm.DEFAULT_RING_BYTES, ring_bytes
    try:
        setup = SimulatedSetup(
            _MODULES, seed=0, calibration_samples=1024, producer="process"
        )
        setup.source.start()
        source = setup.source
        link = setup.link
        source.read_block(batch)  # launches the producer; one warm-up record
    finally:
        shm.DEFAULT_RING_BYTES = default_ring
    # Cap the pre-fill at what the ring can hold (record = header +
    # payload, 8-byte aligned; the last record read stays unreleased).
    record_bytes = 16 + batch * link.firmware.bytes_per_sample()
    fills = max(min(n_samples // batch, ring_bytes // record_bytes - 2), 1)
    hot_n = fills * batch

    def consume(read_block) -> None:
        for _ in range(fills):
            read_block(batch)  # exactly one record: zero-copy decode

    consumed = batch
    hot_t = float("inf")
    for _ in range(repeat):
        while link.ring.samples_pushed - consumed < hot_n:  # pre-fill, untimed
            time.sleep(0.01)
        hot_t = min(hot_t, best_of(lambda: consume(source.read_block), 1))
        consumed += hot_n
    setup.close()

    plain = SimulatedSetup(_MODULES, seed=0, calibration_samples=1024)
    plain.source.start()
    plain.source.read_block(batch)  # warm-up, as on the ring
    sustained_t = best_of(lambda: consume(plain.source.read_block), repeat)
    plain.close()
    return {
        "producer_batch": batch,
        "ring_bytes": ring_bytes,
        "hot_samples": hot_n,
        "read_block_samples_per_s": round(hot_n / hot_t),
        "sustained_samples_per_s": round(hot_n / sustained_t),
        "sustained_includes_device_simulation": True,
    }


def bench_observability(n_samples: int, repeat: int) -> dict:
    """Decode overhead of the metrics layer: enabled vs disabled registry."""
    enabled = SimulatedSetup(
        _MODULES, seed=0, calibration_samples=1024, registry=MetricsRegistry()
    )
    disabled = SimulatedSetup(
        _MODULES,
        seed=0,
        calibration_samples=1024,
        registry=MetricsRegistry(enabled=False),
    )
    enabled.source.start()
    disabled.source.start()
    data = enabled.link.firmware.produce(n_samples)

    # Interleave the two variants inside the repeat loop so thermal /
    # frequency drift hits both equally instead of biasing whichever
    # variant runs second.
    t_on = float("inf")
    t_off = float("inf")
    for _ in range(repeat):
        t_on = min(t_on, best_of(lambda: enabled.source._decode(data, n_samples), 1))
        t_off = min(t_off, best_of(lambda: disabled.source._decode(data, n_samples), 1))
    snapshot = enabled.registry.snapshot()
    enabled.close()
    disabled.close()

    return {
        "n_samples": n_samples,
        "n_pairs": 4,
        "enabled_samples_per_s": round(n_samples / t_on),
        "disabled_samples_per_s": round(n_samples / t_off),
        "overhead_pct": round((t_on - t_off) / t_off * 100.0, 2),
        "registry_snapshot": snapshot,
    }


def bench_dump(n_rows: int, repeat: int) -> dict:
    rng = np.random.default_rng(0)
    times = np.arange(n_rows) * 5e-5
    volts = rng.uniform(0.0, 13.0, size=(n_rows, 4))
    amps = rng.uniform(0.0, 20.0, size=(n_rows, 4))

    tmpdir = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None
    with tempfile.TemporaryDirectory(dir=tmpdir) as d:
        path = Path(d) / "report.dump"

        def write():
            writer = DumpWriter(path, ["a", "b", "c", "d"], 20_000.0)
            writer.write_samples(times, volts, amps)
            writer.close()

        write_t = best_of(write, repeat)
        read_t = best_of(lambda: DumpReader.read(path), repeat)
        size = path.stat().st_size

    write_rate = n_rows / write_t
    read_rate = n_rows / read_t
    rt_rate = n_rows / (write_t + read_t)
    base = RECORDED_BASELINES
    return {
        "n_rows": n_rows,
        "n_pairs": 4,
        "file_bytes": size,
        "tmpfs": tmpdir is not None,
        "write_samples_per_s": round(write_rate),
        "read_samples_per_s": round(read_rate),
        "roundtrip_samples_per_s": round(rt_rate),
        "write_speedup": round(write_rate / base["dump_write_samples_per_s"], 1),
        "read_speedup": round(read_rate / base["dump_read_samples_per_s"], 1),
        "roundtrip_speedup": round(rt_rate / base["dump_roundtrip_samples_per_s"], 1),
    }


def bench_store(n_samples: int, repeat: int) -> dict:
    """The columnar telemetry store: ingest, tiered query, full scan.

    The workload is 10x the ``--samples`` setting (10M rows by default):
    the store exists precisely so windows over tens of millions of rows
    stay interactive, so that is the regime measured.  The tiered query
    (``max_points=1000``) must come back from a *cold* reopened store in
    a few milliseconds while the equivalent full-resolution scan pays
    for every raw row it touches.
    """
    from repro.core.sources import SampleBlock
    from repro.hardware.eeprom import SENSORS
    from repro.store import TelemetryStore

    n_rows = n_samples * 10
    rng = np.random.default_rng(0)
    block_rows = 65_536
    enabled = np.zeros(SENSORS, dtype=bool)
    enabled[:2] = True

    tmpdir = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None
    with tempfile.TemporaryDirectory(dir=tmpdir) as d:
        path = Path(d) / "store"

        t0 = time.perf_counter()
        with TelemetryStore(path, roll_samples=1_000_000) as store:
            for start in range(0, n_rows, block_rows):
                n = min(block_rows, n_rows - start)
                times = (start + np.arange(n) + 1) * 5e-5
                values = np.zeros((n, SENSORS))
                values[:, :2] = rng.normal(12.0, 1.0, size=(n, 2))
                store.append(
                    SampleBlock(
                        times=times,
                        values=values,
                        markers=np.zeros(n, dtype=bool),
                        enabled=enabled,
                    )
                )
        ingest_t = time.perf_counter() - t0
        store_bytes = sum(p.stat().st_size for p in path.glob("*.seg"))

        span = n_rows * 5e-5

        def tiered():
            # A cold open every time: mmap + meta parse + tier read.
            with TelemetryStore(path) as store:
                return store.query(0.1 * span, 0.9 * span, 1000)

        def full_scan():
            with TelemetryStore(path) as store:
                return store.query(0.1 * span, 0.9 * span, None)

        tiered_t = best_of(tiered, repeat)
        full_t = best_of(full_scan, repeat)
        result = tiered()
        scanned = full_scan()

    return {
        "n_rows": n_rows,
        "n_columns": 2,
        "store_bytes": store_bytes,
        "tmpfs": tmpdir is not None,
        "ingest_samples_per_s": round(n_rows / ingest_t),
        "tiered_query_ms": round(tiered_t * 1e3, 3),
        "tiered_query_rows": len(result),
        "tiered_query_factor": result.factor,
        "tiered_query_n_source": result.n_source,
        "full_scan_ms": round(full_t * 1e3, 3),
        "full_scan_rows": len(scanned),
        "tiered_speedup": round(full_t / tiered_t, 1),
        "max_points_respected": len(result) <= 1000,
    }


def _run_fanout(n_clients: int, duration: float, chunk: int, policy: str) -> dict:
    """Serve ``duration`` simulated seconds to ``n_clients`` subscribers."""
    import shutil
    import threading

    from repro.server import PowerSensorServer
    from repro.server.client import RemoteSampleSource

    setup = SimulatedSetup(_MODULES, seed=0, calibration_samples=1024)
    setup.source.start()
    rate = setup.source.sample_rate
    expected = int(round(duration * rate))
    tmpdir = tempfile.mkdtemp(prefix="psserve-bench-")
    server = PowerSensorServer(
        setup.source,
        f"unix:{os.path.join(tmpdir, 'bench.sock')}",
        policy=policy,
        chunk=chunk,
        wait_clients=n_clients,
        max_clients=n_clients,
        time_scale=0.0,
    )
    received = [0] * n_clients
    dropped = [0] * n_clients

    def subscriber(i: int) -> None:
        src = RemoteSampleSource(server.address)
        src.start()
        while True:
            block = src.read_block(4000)
            received[i] += len(block)
            if len(block) < 4000:  # a short read means end of stream
                break
        dropped[i] = (src.eos_stats or {}).get("frames_dropped", 0)
        src.close()

    try:
        server.start()
        threads = [
            threading.Thread(target=subscriber, args=(i,), daemon=True)
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        t0 = time.perf_counter()
        stats = server.serve(duration)
        for t in threads:
            t.join(timeout=60)
        wall = time.perf_counter() - t0
    finally:
        server.close()
        setup.close()
        shutil.rmtree(tmpdir, ignore_errors=True)

    per_client_rate = expected / wall
    return {
        "n_clients": n_clients,
        "policy": policy,
        "chunk": chunk,
        "simulated_seconds": duration,
        "wall_seconds": round(wall, 3),
        "samples_per_client": expected,
        "per_client_samples_per_s": round(per_client_rate),
        "sustains_20khz": per_client_rate >= rate,
        "lossless": all(r == expected for r in received),
        "frames_dropped": sum(dropped),
        "clients_evicted": stats["clients_evicted"],
    }


def _run_remote_read(n_samples: int, chunk: int) -> dict:
    """Single-client remote read path vs a local source on the same pull."""
    import shutil
    import threading

    from repro.server import PowerSensorServer
    from repro.server.client import RemoteSampleSource

    setup = SimulatedSetup(_MODULES, seed=0, calibration_samples=1024)
    setup.source.start()
    t0 = time.perf_counter()
    setup.source.read_block(n_samples)
    local_t = time.perf_counter() - t0
    setup.close()

    setup = SimulatedSetup(_MODULES, seed=0, calibration_samples=1024)
    setup.source.start()
    rate = setup.source.sample_rate
    tmpdir = tempfile.mkdtemp(prefix="psserve-bench-")
    server = PowerSensorServer(
        setup.source,
        f"unix:{os.path.join(tmpdir, 'bench.sock')}",
        policy="block",
        chunk=chunk,
        wait_clients=1,
        time_scale=0.0,
    )
    try:
        server.start()
        pump = threading.Thread(
            target=lambda: server.serve(n_samples / rate), daemon=True
        )
        pump.start()
        src = RemoteSampleSource(server.address)
        src.start()
        t0 = time.perf_counter()
        total = 0
        while total < n_samples:
            block = src.read_block(min(4000, n_samples - total))
            if not len(block):
                break
            total += len(block)
        remote_t = time.perf_counter() - t0
        src.close()
        pump.join(timeout=60)
    finally:
        server.close()
        setup.close()
        shutil.rmtree(tmpdir, ignore_errors=True)

    overhead = (remote_t / total) / (local_t / n_samples)
    return {
        "n_samples": n_samples,
        "chunk": chunk,
        "local_samples_per_s": round(n_samples / local_t),
        "remote_samples_per_s": round(total / remote_t),
        "overhead_ratio": round(overhead, 2),
        "within_2x_local": overhead <= 2.0,
        "samples_received": total,
    }


def _encoded_total(registry) -> int:
    """Sum of the ring encode counter across devices."""
    total = 0
    for metric in registry.snapshot()["metrics"]:
        if metric["name"] == "server_frames_encoded_total":
            total += int(metric["value"])
    return total


def _run_swarm_fanout(n_clients: int, duration: float, chunk: int, policy: str) -> dict:
    """One scaling-curve point: ``n_clients`` loadgen subscribers.

    The swarm is N asyncio subscribers on one event loop, so the point
    measures the server's fan-out, not a thread-per-client load
    generator fighting it for the CPU.
    """
    import shutil
    import threading

    from repro.server import PowerSensorServer
    from repro.server.loadgen import run_swarm

    setup = SimulatedSetup(_MODULES, seed=0, calibration_samples=1024)
    setup.source.start()
    rate = setup.source.sample_rate
    expected_samples = int(round(duration * rate))
    expected_frames = -(-expected_samples // chunk)  # ceil
    tmpdir = tempfile.mkdtemp(prefix="psserve-bench-")
    server = PowerSensorServer(
        setup.source,
        f"unix:{os.path.join(tmpdir, 'bench.sock')}",
        policy=policy,
        chunk=chunk,
        wait_clients=n_clients,
        max_clients=n_clients,
        client_timeout=30.0,
        time_scale=0.0,
    )
    try:
        server.start()
        pump = threading.Thread(target=lambda: server.serve(duration), daemon=True)
        pump.start()
        swarm = run_swarm(
            server.address,
            n_clients,
            connect_concurrency=128,
            timeout=600.0,
        )
        pump.join(timeout=120)
        encodes = _encoded_total(server.registry)
    finally:
        server.close()
        setup.close()
        shutil.rmtree(tmpdir, ignore_errors=True)

    delivered_frames = swarm.total_frames
    delivered_samples = delivered_frames * chunk
    wall = swarm.elapsed
    return {
        "n_clients": n_clients,
        "policy": policy,
        "chunk": chunk,
        "simulated_seconds": duration,
        "wall_seconds": round(wall, 3),
        "clients_completed": len(swarm.completed),
        "frames_encoded": encodes,
        "frames_expected": expected_frames,
        "encode_once": encodes == expected_frames,
        "frames_delivered": delivered_frames,
        "aggregate_samples_per_s": round(delivered_samples / wall),
        "per_client_samples_per_s": round(delivered_samples / wall / n_clients),
        "lossless": (
            delivered_frames == n_clients * encodes
            and swarm.eos_total("frames_dropped") == 0
        ),
        "frames_dropped": swarm.eos_total("frames_dropped"),
        "seq_gaps": swarm.total_gaps,
    }


def bench_server(repeat: int) -> dict:
    """Fan-out capacity and remote read overhead of the serving layer.

    ``repeat`` is ignored: these runs involve a live daemon and
    simulated seconds of stream, so each configuration is run once.
    """
    return {
        "fanout": [
            _run_fanout(64, 2.0, chunk, "drop-oldest") for chunk in (400, 2000)
        ],
        "remote_read": _run_remote_read(200_000, 2000),
        "scaling": {
            "drop_oldest": [
                _run_swarm_fanout(64, 2.0, 400, "drop-oldest"),
                _run_swarm_fanout(256, 1.0, 400, "drop-oldest"),
                _run_swarm_fanout(1024, 0.5, 400, "drop-oldest"),
            ],
            "block": [
                _run_swarm_fanout(64, 2.0, 400, "block"),
                _run_swarm_fanout(256, 1.0, 400, "block"),
            ],
        },
    }


def _run_fleet(duration: float, chunk: int) -> dict:
    """A 4-device mixed fleet behind one psserve endpoint.

    The fleet mirrors the supported member kinds — two simulated benches,
    a looped replay tape, and a remote member re-served from an inner
    daemon — with one subscriber per device on the outer endpoint.  Each
    device must sustain its full 20 kHz with zero dropped frames.
    """
    import shutil
    import threading

    from repro.core.fleet import Fleet
    from repro.server import PowerSensorServer
    from repro.server.client import RemoteSampleSource

    tmpdir = tempfile.mkdtemp(prefix="psserve-fleet-bench-")
    tape = os.path.join(tmpdir, "tape.dump")

    # Record half a second of one-module stream as the replay member's tape.
    rec = SimulatedSetup(["pcie_slot_12v"], seed=3, calibration_samples=1024)
    rec.source.start()
    writer = DumpWriter(tape, ["pcie"], rec.source.sample_rate)
    block = rec.source.read_block(10_000)
    writer.write_samples(block.times, block.values[:, 1:2], block.values[:, 0:1])
    writer.close()
    rec.close()

    # The inner daemon whose stream the fleet's remote member re-serves.
    inner_setup = SimulatedSetup(
        ["pcie_slot_12v"], seed=5, calibration_samples=1024, device="shared"
    )
    inner_setup.source.start()
    inner = PowerSensorServer(
        inner_setup.source,
        f"unix:{os.path.join(tmpdir, 'inner.sock')}",
        chunk=chunk,
        wait_clients=1,
        time_scale=0.0,
    )
    inner.start()
    inner_pump = threading.Thread(
        target=lambda: inner.serve(duration * 1.1), daemon=True
    )
    inner_pump.start()

    fleet = Fleet.from_specs(
        [
            "sim://pcie_slot_12v?seed=0&calibration_samples=1024&device=simA",
            "sim://pcie_slot_12v?seed=1&calibration_samples=1024&device=simB",
            f"remote://{inner.address}?device=shared",
            f"replay://{tape}?loop=true&device=tape",
        ]
    )
    rate = max(member.source.sample_rate for member in fleet)
    expected = int(round(duration * rate))
    server = PowerSensorServer(
        fleet.sources(),
        f"unix:{os.path.join(tmpdir, 'outer.sock')}",
        chunk=chunk,
        wait_clients=len(fleet),
        time_scale=0.0,
    )
    received = {name: 0 for name in fleet.names}
    dropped = dict(received)

    def subscriber(name: str) -> None:
        src = RemoteSampleSource(server.address, device=name)
        src.start()
        while True:
            block = src.read_block(4000)
            received[name] += len(block)
            if len(block) < 4000:  # a short read means end of stream
                break
        dropped[name] = (src.eos_stats or {}).get("frames_dropped", 0)
        src.close()

    try:
        server.start()
        threads = [
            threading.Thread(target=subscriber, args=(name,), daemon=True)
            for name in fleet.names
        ]
        for t in threads:
            t.start()
        t0 = time.perf_counter()
        server.serve(duration)
        for t in threads:
            t.join(timeout=60)
        wall = time.perf_counter() - t0
    finally:
        server.close()
        fleet.close()
        inner.close()
        inner_pump.join(timeout=60)
        inner_setup.close()
        shutil.rmtree(tmpdir, ignore_errors=True)

    per_device_rate = expected / wall
    return {
        "devices": sorted(received),
        "n_devices": len(received),
        "chunk": chunk,
        "simulated_seconds": duration,
        "wall_seconds": round(wall, 3),
        "samples_per_device": expected,
        "per_device_samples_per_s": round(per_device_rate),
        "sustains_20khz_each": per_device_rate >= rate,
        "lossless": all(r == expected for r in received.values()),
        "frames_dropped": sum(dropped.values()),
        "received": dict(received),
    }


def bench_fleet(repeat: int) -> dict:
    """The multi-device serving path (one run of a live daemon)."""
    return {"mixed_fleet": _run_fleet(2.0, 400)}


_STORAGE_JOBS = """\
[global]
bs=4k
iodepth=4

[prep]
rw=write
runtime=0
pre_format=1
precondition=0.5

[steady-writes]
stonewall
rw=randwrite
ss=iops_slope:2%
ss_dur=3
runtime=10

[reads]
stonewall
rw=randread
bs=64k
runtime=1
"""

#: FTL policies the storage section sweeps: the page map (the paper's
#: drive model) against the merge-heavy group map, spanning the
#: energy-per-IO range the full four-policy study covers.
_STORAGE_POLICIES = "page,group"


def bench_storage(repeat: int) -> dict:
    """Energy per IO through the declarative job-file runner.

    ``repeat`` is ignored: each job runs simulated seconds of workload
    through the FTL and the PS3 bench, so every (policy, job) pair is a
    single measurement — like fio itself, one run per job.

    The workload is the extended Fig. 12 study at bench scale: format +
    sequential preconditioning, sustained random 4 KiB writes to
    fio-style steady state, then a 64 KiB random-read stage, measured
    through the simulated PowerSensor3 on the 3.3 V slot rail.
    """
    from repro.common.units import MIB
    from repro.dut.ssd import SsdSpec
    from repro.storage.jobfile import run_jobfile

    with tempfile.TemporaryDirectory() as d:
        jobs = Path(d) / "bench.fio"
        jobs.write_text(_STORAGE_JOBS)
        t0 = time.perf_counter()
        report = run_jobfile(
            jobs,
            ftl=_STORAGE_POLICIES,
            ssd_spec=SsdSpec(logical_bytes=96 * MIB),
            seed=0,
        )
        wall = time.perf_counter() - t0

    out: dict = {
        "jobfile_jobs": len(next(iter(report["policies"].values()))),
        "policies": {},
        "wall_seconds": round(wall, 3),
    }
    for policy, outcomes in report["policies"].items():
        writes = next(o for o in outcomes if o["name"] == "steady-writes")
        reads = next(o for o in outcomes if o["name"] == "reads")
        ss = writes["steady_state"] or {}
        out["policies"][policy] = {
            "write_joules_per_io": writes["joules_per_io"],
            "write_bandwidth_cv": round(writes["bandwidth_cv"], 4),
            "write_power_w": round(writes["power_mean_w"], 4),
            "write_amplification": round(writes["write_amplification"], 3),
            "map_bytes": writes["map_bytes"],
            "steady_state_attained": bool(ss.get("attained")),
            "steady_state_stopped_at_s": ss.get("stopped_at_s"),
            "read_joules_per_io": reads["joules_per_io"],
            "read_p99_latency_us": round(
                reads["latency_percentiles_us"]["99"], 2
            ),
        }
    return out


SECTIONS = {
    "decode": lambda a: bench_decode(a.samples, a.repeat),
    "producer": lambda a: bench_producer(a.samples, a.repeat),
    "dump": lambda a: bench_dump(a.samples, a.repeat),
    "observability": lambda a: bench_observability(a.samples, a.repeat),
    "server": lambda a: bench_server(a.repeat),
    "fleet": lambda a: bench_fleet(a.repeat),
    "store": lambda a: bench_store(a.samples, a.repeat),
    "storage": lambda a: bench_storage(a.repeat),
}


def current_commit() -> str:
    """The repository's short HEAD at generation time (``-dirty`` suffixed).

    Stamped fresh on every run — including ``--only`` partial refreshes,
    which previously carried sections forward but could leave a report
    on disk whose ``commit`` named a long-gone ancestor.  A failed or
    missing ``git`` yields ``"unknown"`` rather than a stale value.
    """
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=Path(__file__).parent,
        )
        if head.returncode != 0 or not head.stdout.strip():
            return "unknown"
        commit = head.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, cwd=Path(__file__).parent,
        )
        if status.returncode == 0 and status.stdout.strip():
            commit += "-dirty"
        return commit
    except OSError:
        return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--only",
        metavar="SECTION[,SECTION...]",
        default=None,
        help="run only these sections (%s); the other sections are "
        "carried over from the existing output file when present, so CI "
        "can refresh just the server numbers" % ", ".join(SECTIONS),
    )
    parser.add_argument(
        "--output", default=str(Path(__file__).resolve().parent.parent / "BENCH_streaming.json")
    )
    args = parser.parse_args()

    selected = list(SECTIONS)
    if args.only:
        selected = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [s for s in selected if s not in SECTIONS]
        if unknown:
            parser.error(f"unknown section(s): {', '.join(unknown)}")

    previous: dict = {}
    out_path = Path(args.output)
    if args.only and out_path.exists():
        previous = json.loads(out_path.read_text())

    report = {
        "generated_by": "benchmarks/streaming_report.py",
        "commit": current_commit(),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "recorded_baselines": RECORDED_BASELINES,
    }
    for name in SECTIONS:
        if name in selected:
            report[name] = SECTIONS[name](args)
        elif name in previous:
            report[name] = previous[name]
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
