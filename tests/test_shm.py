"""Producer-ring tests (PR 7).

Three layers of pinning for the shared-memory producer path:

* SPSC ring invariants — wrap, overflow refusal, FIFO order, zero-copy
  contiguity — on a plain bytearray buffer (no workers involved);
* stream equivalence — ``producer=thread`` and ``producer=process``
  must be byte-identical to the inline reference across the PR-1 fault
  matrix, in both protocol and direct mode;
* lifecycle — lazy worker launch, duplicate START, producer crash
  surfacing as the usual stall/recovery path, and close() leaving no
  /dev/shm segment behind.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, StreamStalledError
from repro.core.fleet import Fleet
from repro.core.setup import simulated_source
from repro.server.daemon import PowerSensorServer
from repro.transport.shm import (
    _HEADER,
    SpscByteRing,
    resolve_producer_mode,
)
from tests.conftest import make_loaded_setup


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
# Producer equivalence across the fault matrix                          #
# --------------------------------------------------------------------- #

FAULT_MATRIX = [
    None,
    "drop:0.05",
    "flip:0.01",
    "partial:0.5",
    "burst:0.02@64",
    "drop:0.03,flip:0.005,partial:0.3",
]


def _stream_bytes(producer, faults, reads=(700, 1, 4096, 333, 2048)):
    src = simulated_source(
        "pcie_slot_12v,usbc",
        seed=9,
        faults=faults,
        fault_seed=21,
        calibrate=False,
        producer=producer,
        producer_batch=1024,
    )
    src.start()
    out = []
    for n in reads:
        block, raw = src.read_block_raw(n)
        out.append((bytes(raw), block.times.tobytes(), block.values.tobytes()))
    src.bench.close()
    return out


# The reference is producer="inline" — the same ring and batch size,
# filled synchronously.  producer=None would chunk device production
# per-read, and production (stateful noise RNG) is deliberately not
# chunking-invariant; that's the documented opt-in caveat of producer=.
@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("faults", FAULT_MATRIX, ids=lambda f: f or "clean")
def test_producer_stream_is_byte_identical_to_inline(mode, faults):
    assert _stream_bytes(mode, faults) == _stream_bytes("inline", faults)


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_direct_producer_matches_inline(mode):
    def run(producer):
        src = simulated_source(
            "pcie_slot_12v", seed=3, direct=True, calibrate=False, producer=producer
        )
        src.start()
        blocks = [src.read_block(n) for n in (500, 77, 2000)]
        out = [(b.times.tobytes(), b.values.tobytes()) for b in blocks]
        src.bench.close()
        return out

    assert run(mode) == run("inline")


def test_read_block_returns_ring_view_zero_copy():
    # A whole-record read comes straight out of the ring (no join copy).
    src = simulated_source(
        "pcie_slot_12v", seed=1, calibrate=False, producer="thread", producer_batch=512
    )
    src.start()
    _, raw = src.read_block_raw(512)
    assert isinstance(raw, bytes) and len(raw) == 512 * 6
    src.bench.close()


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


def test_producer_crash_surfaces_as_stall_not_hang():
    setup = make_loaded_setup(
        direct=False,
        producer="process",
        calibration_samples=1024,
        producer_batch=1024,
        ring_bytes=1 << 16,  # small ring: drains within a few reads
    )
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


def test_ring_too_small_for_batch_surfaces_as_producer_error():
    src = simulated_source(
        "pcie_slot_12v",
        seed=0,
        calibrate=False,
        producer="thread",
        producer_batch=4096,
        ring_bytes=8192,  # one 24 KiB record can never fit
    )
    src.start()
    # The worker dies on its first push; the consumer sees an empty read
    # (recovery's signal) and the error is kept for diagnostics.
    block = src.read_block(4096)
    assert len(block) == 0
    assert "does not fit" in (src.bench.link.producer_error or "")
    src.bench.close()


def test_fleet_spec_accepts_producer_options():
    fleet = Fleet()
    fleet.add_spec(
        "sim://pcie_slot_12v?device=p&calibrate=false"
        "&producer=thread&producer_batch=2048"
    )
    block = fleet.read_all(0.1)
    assert len(block["p"]) == 2000
    fleet.close()


# --------------------------------------------------------------------- #
# Server batching: raw slices re-framed at the chunk cadence            #
# --------------------------------------------------------------------- #


def test_split_raw_reframes_clean_batches():
    raw = bytes(range(120))  # 20 samples at 6 bytes/sample
    out = PowerSensorServer._split_raw(raw, 20, 8)
    assert [(len(p) // 6, n) for p, n in out] == [(8, 8), (8, 8), (4, 4)]
    assert b"".join(p for p, _ in out) == raw


def test_split_raw_passes_through_small_and_mangled_reads():
    raw = bytes(60)
    assert PowerSensorServer._split_raw(raw, 10, 16) == [(raw, 10)]  # fits one chunk
    mangled = bytes(61)  # fault-shortened: not a whole number of samples
    assert PowerSensorServer._split_raw(mangled, 20, 8) == [(mangled, 20)]
    assert PowerSensorServer._split_raw(b"", 0, 8) == [(b"", 0)]


def test_server_rejects_bad_pump_batch():
    setup = make_loaded_setup(direct=False, calibration_samples=1024)
    with pytest.raises(ConfigurationError):
        PowerSensorServer(setup.source, "unix:/tmp/x.sock", pump_batch=0)
    setup.close()
