"""Producer-ring tests.

Three layers of pinning for the shared-memory producer path:

* SPSC ring invariants — wrap, overflow refusal, FIFO order, zero-copy
  contiguity — on a plain bytearray buffer (no workers involved);
* stream equivalence against the plain path, where device simulation
  runs inline on the read path — on a clean stream ``producer=thread``
  and ``producer=process`` give the plain stream for any sequence of
  reads.  Fault models draw per link read, so across the fault matrix
  both modes give the plain link read one producer batch at a time, and
  hence each other, also across a STOP/START cycle;
* lifecycle — lazy worker launch, duplicate START, producer crash
  surfacing as the usual stall/recovery path, and close() leaving no
  /dev/shm segment behind.

Tests that need a small batch or ring patch ``DEFAULT_BATCH`` and
``DEFAULT_RING_BYTES``, which a producer reads when it starts.
"""

from __future__ import annotations

import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, StreamStalledError
from repro.core.fleet import Fleet, build_bench
from repro.core.sources import SampleBlock
from repro.server.daemon import PowerSensorServer
from repro.transport import shm
from repro.transport.shm import (
    _HEADER,
    SpscByteRing,
    resolve_producer_mode,
)
from tests.conftest import make_loaded_setup


@pytest.fixture
def small_batches(monkeypatch):
    """1024-sample batches in a 64 KiB ring: many records, quick to fill."""
    monkeypatch.setattr(shm, "DEFAULT_BATCH", 1024)
    monkeypatch.setattr(shm, "DEFAULT_RING_BYTES", 1 << 16)


def _ring(capacity: int = 256) -> SpscByteRing:
    return SpscByteRing(bytearray(_HEADER + capacity))


# --------------------------------------------------------------------- #
# SPSC ring invariants                                                  #
# --------------------------------------------------------------------- #


def test_ring_round_trips_records_in_order():
    ring = _ring()
    payloads = [bytes([k]) * (10 + k) for k in range(4)]
    for k, payload in enumerate(payloads):
        assert ring.try_push(payload, k + 1)
    assert ring.samples_pushed == 1 + 2 + 3 + 4
    for k, expected in enumerate(payloads):
        view, n = ring.pop()
        assert bytes(view) == expected
        assert n == k + 1
    assert ring.pop() is None
    ring.release()
    assert ring.occupancy() == 0


def test_ring_wrap_keeps_payloads_contiguous():
    # Records never straddle the edge: a record that would wrap starts
    # at offset 0 behind a pad sentinel, so every view is one slice.
    ring = _ring(256)
    for k in range(64):  # many laps around a 256-byte ring
        payload = bytes([k % 251]) * (20 + k % 40)
        assert ring.try_push(payload, 1)
        view, n = ring.pop()
        assert n == 1
        assert view.contiguous
        assert bytes(view) == payload
        ring.release()


def test_ring_overflow_refuses_then_recovers():
    ring = _ring(256)
    payload = bytes(100)  # 112-byte aligned record
    assert ring.try_push(payload, 1)
    assert ring.try_push(payload, 1)
    assert not ring.try_push(payload, 1)  # full: refused, nothing written
    view, _ = ring.pop()
    assert bytes(view) == payload
    ring.release()  # space published back to the producer
    assert ring.try_push(payload, 1)


def test_ring_pop_on_empty_returns_none():
    assert _ring().pop() is None


def test_ring_rejects_record_larger_than_half_capacity():
    with pytest.raises(ValueError):
        _ring(256).try_push(bytes(121), 1)


def test_ring_eos_flag_and_samples_survive():
    ring = _ring()
    ring.try_push(b"abc", 3)
    ring.mark_eos()
    assert ring.eos
    assert ring.samples_pushed == 3  # readable after the producer is gone
    view, n = ring.pop()
    assert (bytes(view), n) == (b"abc", 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=120))
def test_ring_is_fifo_and_lossless(sizes):
    ring = _ring(512)
    pushed: list[bytes] = []
    popped: list[bytes] = []

    def drain_one() -> bool:
        rec = ring.pop()
        if rec is None:
            return False
        popped.append(bytes(rec[0]))
        ring.release()
        return True

    for k, size in enumerate(sizes):
        payload = bytes([k % 251]) * size
        while not ring.try_push(payload, 1):
            assert drain_one()  # full ring must always be drainable
        pushed.append(payload)
    while drain_one():
        pass
    assert popped == pushed


# --------------------------------------------------------------------- #
# Producer equivalence                                                  #
# --------------------------------------------------------------------- #

FAULT_MATRIX = [
    None,
    "drop:0.05",
    "flip:0.01",
    "partial:0.5",
    "burst:0.02@64",
    "drop:0.03,flip:0.005,partial:0.3",
]

READS = (700, 1, 4096, 333, 2048)


def _bench(producer, faults=None, seed=9):
    """An uncalibrated two-module bench, already streaming."""
    return build_bench(
        "sim://pcie_slot_12v,usbc",
        seed=seed,
        faults=faults,
        fault_seed=21,
        calibrate=False,
        producer=producer,
    )


def _stream_bytes(producer, faults, reads=READS):
    bench = _bench(producer, faults)
    out = []
    for n in reads:
        block, raw = bench.source.read_block_raw(n)
        out.append((raw, block.times.tobytes(), block.values.tobytes()))
    bench.close()
    return out


def _plain_batches(faults, n_samples):
    """The plain link read one producer batch at a time, concatenated."""
    bench = _bench(None, faults)
    batches = -(-n_samples // shm.DEFAULT_BATCH)
    raw = b"".join(bench.link.pump_samples(shm.DEFAULT_BATCH) for _ in range(batches))
    bench.close()
    return raw


# The reference is the plain link, which runs device simulation inline on
# the read path.  Clean streams are chunking-invariant, so the producer
# stream equals the plain stream read after read.  Fault models draw once
# per link read, so a faulted producer stream equals the plain link read
# in producer batches instead (and so each mode equals the other).
@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("faults", FAULT_MATRIX, ids=lambda f: f or "clean")
def test_producer_stream_is_byte_identical_to_inline(small_batches, mode, faults):
    got = _stream_bytes(mode, faults)
    if faults is None:
        assert got == _stream_bytes(None, None)
    raw = b"".join(raw for raw, _, _ in got)
    assert raw == _plain_batches(faults, sum(READS))[: len(raw)]


@settings(max_examples=8, deadline=None)
@given(
    reads=st.lists(st.integers(min_value=1, max_value=1500), min_size=1, max_size=8),
)
def test_clean_producers_match_plain_path_for_any_reads(reads):
    def run(producer):
        bench = _bench(producer, seed=2)
        blocks = [bench.source.read_block(n) for n in reads]
        out = [(b.times.tobytes(), b.values.tobytes()) for b in blocks]
        bench.close()
        return out

    with mock.patch.object(shm, "DEFAULT_BATCH", 512):
        want = run(None)
        for mode in ("thread", "process"):
            assert run(mode) == want, mode


def _restarted_stream(producer, faults):
    bench = _bench(producer, faults, seed=5)
    src = bench.source
    blocks = [src.read_block(700)]
    ring = bench.link.ring
    deadline = time.monotonic() + 10.0
    while ring.occupancy() < ring.capacity:  # wait until the producer blocks
        assert time.monotonic() < deadline, "the producer never filled the ring"
        time.sleep(0.01)
    src.stop()
    src.start()
    blocks += [src.read_block(n) for n in (3000, 1500)]
    bench.close()
    return [(b.times.tobytes(), b.values.tobytes()) for b in blocks]


# A forked producer hands its sensor noise and fault generator back at
# STOP, so the restarted stream continues as a thread producer's does.
# STOP lands on a producer blocked on a full ring, which then holds one
# unpushed batch in either mode.  The ring holds exactly four records
# (flips keep record sizes fixed), so "full" is occupancy == capacity.
@pytest.mark.parametrize(
    "faults", [None, "flip:0.01"], ids=["protocol-clean", "protocol-flip"]
)
def test_producer_modes_match_across_stop_start(monkeypatch, faults):
    batch = 1024
    row_bytes = 10  # wire: 2 pairs + timestamp
    monkeypatch.setattr(shm, "DEFAULT_BATCH", batch)
    monkeypatch.setattr(shm, "DEFAULT_RING_BYTES", 4 * (8 + batch * row_bytes))
    assert _restarted_stream("process", faults) == _restarted_stream("thread", faults)


def test_read_block_returns_ring_view_zero_copy(monkeypatch):
    # A whole-record read comes straight out of the ring (no join copy).
    monkeypatch.setattr(shm, "DEFAULT_BATCH", 512)
    bench = build_bench("sim://pcie_slot_12v?seed=1&calibrate=false&producer=thread")
    _, raw = bench.source.read_block_raw(512)
    assert isinstance(raw, bytes) and len(raw) == 512 * 6
    bench.close()


# --------------------------------------------------------------------- #
# Lifecycle                                                             #
# --------------------------------------------------------------------- #


def test_worker_launches_on_first_read_not_on_start():
    # The DUT rail is connected after construction (which starts
    # streaming); forking at START would snapshot an unloaded bench.
    setup = make_loaded_setup(direct=False, producer="thread", calibration_samples=1024)
    link = setup.link
    assert link.producing
    assert link._worker is None  # armed, not launched
    setup.ps.pump(100)
    assert link._worker is not None
    setup.close()


def test_marker_before_first_read_passes_through():
    setup = make_loaded_setup(direct=False, producer="thread", calibration_samples=1024)
    setup.ps.mark("A")  # worker not launched yet: straight to firmware
    setup.ps.pump(2000)
    setup.ps.mark("B")  # worker running: routed through the command pipe
    for _ in range(40):  # B lands after the batches already in flight
        setup.ps.pump(2000)
        if len(setup.ps.marker_log) == 2:
            break
    assert [char for _, char in setup.ps.marker_log] == ["A", "B"]
    setup.close()


def test_duplicate_start_while_producing_is_a_noop():
    setup = make_loaded_setup(direct=False, producer="thread", calibration_samples=1024)
    setup.ps.pump(500)
    setup.source.start()  # classic firmware tolerates a repeated START
    assert len(setup.ps.pump(500)) == 500
    setup.close()


def test_producer_crash_surfaces_as_stall_not_hang(small_batches):
    # The small ring drains within a few reads.
    setup = make_loaded_setup(direct=False, producer="process", calibration_samples=1024)
    setup.ps.pump(1000)  # launches the worker
    worker = setup.link._worker
    worker._process.terminate()
    worker._process.join(timeout=10)
    with pytest.raises(StreamStalledError):
        for _ in range(40):  # drain the ring residue, then stall
            setup.ps.pump(2000)
    setup.close()


def test_close_unlinks_shared_memory():
    before = set(os.listdir("/dev/shm"))
    setup = make_loaded_setup(direct=False, producer="process", calibration_samples=1024)
    setup.ps.pump(1000)
    assert set(os.listdir("/dev/shm")) - before  # segment exists while live
    setup.close()
    assert set(os.listdir("/dev/shm")) - before == set()


def test_stop_and_restart_cycle():
    setup = make_loaded_setup(direct=False, producer="thread", calibration_samples=1024)
    assert len(setup.ps.pump(800)) == 800
    setup.source.stop()
    assert not setup.link.producing
    setup.source.start()
    assert len(setup.ps.pump(800)) == 800
    setup.close()


def test_auto_mode_resolves_for_this_box():
    assert resolve_producer_mode("auto") in ("thread", "process")
    with pytest.raises(ConfigurationError):
        resolve_producer_mode("hovercraft")


def test_ring_too_small_for_batch_surfaces_as_producer_error(monkeypatch):
    monkeypatch.setattr(shm, "DEFAULT_BATCH", 4096)
    monkeypatch.setattr(shm, "DEFAULT_RING_BYTES", 8192)  # a 24 KiB record never fits
    bench = build_bench("sim://pcie_slot_12v?calibrate=false&producer=thread")
    # The worker dies on its first push; the consumer sees an empty read
    # (recovery's signal) and the error is kept for diagnostics.
    block = bench.source.read_block(4096)
    assert len(block) == 0
    assert "does not fit" in (bench.link.producer_error or "")
    bench.close()


def test_fleet_spec_accepts_producer_options():
    fleet = Fleet()
    fleet.add_spec("sim://pcie_slot_12v?device=p&calibrate=false&producer=thread")
    block = fleet.read_all(0.1)
    assert len(block["p"]) == 2000
    fleet.close()


# --------------------------------------------------------------------- #
# Server reads: raw slices framed at the chunk cadence                  #
# --------------------------------------------------------------------- #


def numbered_block(n: int) -> SampleBlock:
    return SampleBlock(
        times=np.arange(n, dtype=float),
        values=np.zeros((n, 8)),
        markers=np.zeros(n, dtype=bool),
        enabled=np.ones(8, dtype=bool),
    )


def pieces(block, raw, produced, chunk):
    """``PowerSensorServer._pieces`` as (sample times, payload, samples)."""
    return [
        (b.times.tolist(), payload, n)
        for b, payload, n in PowerSensorServer._pieces(block, raw, produced, chunk)
    ]


def test_split_raw_reframes_clean_batches():
    raw = bytes(range(120))  # 20 samples at 6 bytes/sample
    out = pieces(numbered_block(20), raw, 20, 8)
    assert [(times[0], len(p) // 6, n) for times, p, n in out] == [
        (0.0, 8, 8), (8.0, 8, 8), (16.0, 4, 4)
    ]
    assert [len(times) for times, _, _ in out] == [8, 8, 4]
    assert b"".join(p for _, p, _ in out) == raw
    # A device without wire bytes is cut the same way.
    assert [(len(t), p, n) for t, p, n in pieces(numbered_block(20), None, 20, 8)] == [
        (8, None, 8), (8, None, 8), (4, None, 4)
    ]


def test_split_raw_passes_through_small_and_mangled_reads():
    raw = bytes(60)
    # fits one chunk
    assert pieces(numbered_block(10), raw, 10, 16) == [(list(range(10)), raw, 10)]
    mangled = bytes(61)  # fault-shortened: not a whole number of samples
    assert pieces(numbered_block(20), mangled, 20, 8) == [(list(range(20)), mangled, 20)]
    short = numbered_block(18)  # two samples lost in decode
    assert pieces(short, bytes(120), 20, 8) == [(list(range(18)), bytes(120), 20)]
    assert pieces(numbered_block(0), b"", 8, 4) == [([], b"", 8)]  # a stalled read
