"""Pin the vectorised decode path to the scalar reference implementation.

``StreamDecoder`` is the reference: byte-at-a-time, obviously correct.
These tests fuzz ``decode_block``/``BlockDecoder`` against it — same
events, same resync/packet accounting, for every chunking of the input —
and then pin ``ProtocolSampleSource`` to a per-event sample-grouping
oracle fed the exact wire bytes each read pulled, clean and
fault-injected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.health import StreamHealth
from repro.core.setup import SimulatedSetup
from repro.core.sources import convert_codes
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.firmware.protocol import (
    BlockDecoder,
    StreamDecoder,
    Timestamp,
    TimestampUnwrapper,
    decode_block,
    encode_sensor_packet,
    encode_timestamp_packet,
)
from repro.hardware.eeprom import SENSORS


def _reference(chunks: list[bytes]) -> tuple[list, int, int, int | None]:
    """Events and counters from the scalar decoder fed the same chunks."""
    dec = StreamDecoder()
    events = []
    for chunk in chunks:
        events.extend(dec.feed(chunk))
    return events, dec.resync_count, dec.packet_count, dec._pending_first


def _sample_stream(markers: bool = True) -> bytes:
    """A well-formed stream: timestamp + sensors 0..3 per sample set."""
    out = bytearray()
    for i in range(12):
        out += encode_timestamp_packet(50 * i)
        for sensor in range(4):
            value = (37 * i + 100 * sensor) % 1024
            out += encode_sensor_packet(
                sensor, value, marker=markers and sensor == 0 and i % 5 == 0
            )
    return bytes(out)


def _corrupt(data: bytes) -> bytes:
    """Deterministically mangle a stream: drops, flips, garbage runs."""
    raw = bytearray(data)
    del raw[7]  # orphan a second byte
    del raw[40]
    raw[21] ^= 0x80  # flip a framing bit
    raw[55] ^= 0x80
    raw[33:33] = b"\x00\x7f\x00"  # dangling second bytes
    raw[10:10] = b"\xff\xff"  # back-to-back first bytes
    return bytes(raw)


# --------------------------------------------------------------------- #
# decode_block (stateless core)                                         #
# --------------------------------------------------------------------- #


def test_decode_block_clean_stream_matches_scalar():
    data = _sample_stream()
    block, pending, resyncs = decode_block(data)
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference([data])
    assert block.events() == ref_events
    assert len(block) == ref_packets
    assert resyncs == ref_resyncs == 0
    assert pending is ref_pending is None


def test_decode_block_corrupted_stream_matches_scalar():
    data = _corrupt(_sample_stream())
    block, pending, resyncs = decode_block(data)
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference([data])
    assert block.events() == ref_events
    assert len(block) == ref_packets
    assert resyncs == ref_resyncs > 0
    assert pending == ref_pending


def test_decode_block_empty_and_ndarray_inputs():
    block, pending, resyncs = decode_block(b"")
    assert len(block) == 0 and pending is None and resyncs == 0
    block, pending, resyncs = decode_block(b"", pending_first=0x85)
    assert len(block) == 0 and pending == 0x85 and resyncs == 0

    data = _sample_stream()
    as_bytes = decode_block(data)
    as_array = decode_block(np.frombuffer(data, dtype=np.uint8))
    assert as_bytes[0].events() == as_array[0].events()
    assert as_bytes[1:] == as_array[1:]


def test_decode_block_pending_first_chains_across_calls():
    """Manually threading pending_first equals one scalar pass."""
    data = _corrupt(_sample_stream())
    for split in (1, 7, 20, len(data) - 1):
        events, resyncs, pending = [], 0, None
        for chunk in (data[:split], data[split:]):
            block, pending, r = decode_block(chunk, pending)
            events.extend(block.events())
            resyncs += r
        ref_events, ref_resyncs, _, ref_pending = _reference([data])
        assert events == ref_events
        assert resyncs == ref_resyncs
        assert pending == ref_pending


@pytest.mark.parametrize("seed", range(10))
def test_decode_block_random_byte_soup_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=int(rng.integers(0, 400)), dtype=np.uint8).tobytes()
    block, pending, resyncs = decode_block(data)
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference([data])
    assert block.events() == ref_events
    assert len(block) == ref_packets
    assert resyncs == ref_resyncs
    assert pending == ref_pending


# --------------------------------------------------------------------- #
# BlockDecoder (stateful wrapper)                                       #
# --------------------------------------------------------------------- #


def _assert_block_decoder_matches(chunks: list[bytes]) -> None:
    vec = BlockDecoder()
    events = []
    for chunk in chunks:
        events.extend(vec.feed(chunk))
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference(chunks)
    assert events == ref_events
    assert vec.resync_count == ref_resyncs
    assert vec.packet_count == ref_packets
    assert vec._pending_first == ref_pending


def test_block_decoder_split_at_every_offset():
    """Chunk boundaries anywhere — mid-packet, mid-garbage — change nothing."""
    data = _corrupt(_sample_stream())
    for split in range(len(data) + 1):
        _assert_block_decoder_matches([data[:split], data[split:]])


@pytest.mark.parametrize("seed", range(10))
def test_block_decoder_random_chunking_fuzz(seed):
    rng = np.random.default_rng(1000 + seed)
    soup = rng.integers(0, 256, size=600, dtype=np.uint8).tobytes()
    data = _sample_stream() + soup[:300] + _sample_stream() + soup[300:]
    chunks, i = [], 0
    while i < len(data):
        n = int(rng.integers(0, 9))  # zero-length chunks included
        chunks.append(data[i : i + n])
        i += n
    _assert_block_decoder_matches(chunks)


def test_block_decoder_reset_clears_state():
    dec = BlockDecoder()
    dec.decode(b"\xff")  # leaves a pending first byte
    assert dec._pending_first == 0xFF
    dec.reset()
    assert dec._pending_first is None
    assert dec.resync_count == 0
    assert dec.packet_count == 0
    block = dec.decode(_sample_stream())
    assert len(block) == dec.packet_count


# --------------------------------------------------------------------- #
# ProtocolSampleSource vs the per-event reference                        #
# --------------------------------------------------------------------- #

_MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]
_READS = (7, 64, 3, 128, 1, 500, 9)


class _ScalarOracle:
    """Per-event sample grouping: the reference the source is pinned to.

    ``StreamDecoder`` events are grouped one at a time: a timestamp closes
    the pending sample set once every enabled sensor has reported since
    the last close, readings before the first timestamp have no time
    anchor and are discarded, and incomplete sets carry into the next
    buffer.  Times come from ``TimestampUnwrapper.update``, values from
    ``convert_codes``.
    """

    def __init__(self, configs) -> None:
        self.configs = list(configs)
        self.n_enabled = sum(1 for c in self.configs if c.enabled)
        self.decoder = StreamDecoder()
        self.unwrapper = TimestampUnwrapper()
        self.pending: dict[int, int] = {}
        self.pending_marker = False
        self.have_timestamp = False
        self.time = 0.0
        self.bytes_read = 0
        self.samples_decoded = 0

    def counters(self) -> dict[str, int]:
        return {
            "bytes_read": self.bytes_read,
            "packets_decoded": self.decoder.packet_count,
            "packets_dropped": self.decoder.resync_count,
            "samples_decoded": self.samples_decoded,
        }

    def decode(self, data: bytes):
        """One buffer to ``(times, values, markers, enabled)``."""
        times: list[float] = []
        rows: list[np.ndarray] = []
        markers: list[bool] = []
        self.bytes_read += len(data)

        def flush() -> None:
            if not self.have_timestamp or len(self.pending) < self.n_enabled:
                return
            row = np.zeros(SENSORS, dtype=np.int64)
            for sensor, value in self.pending.items():
                row[sensor] = value
            times.append(self.time)
            rows.append(row)
            markers.append(self.pending_marker)
            self.pending = {}
            self.pending_marker = False

        for event in self.decoder.feed(data):
            if isinstance(event, Timestamp):
                flush()
                self.time = self.unwrapper.update(event.micros)
                self.have_timestamp = True
            elif self.have_timestamp:
                self.pending[event.sensor] = event.value
                self.pending_marker = self.pending_marker or event.marker
        flush()
        self.samples_decoded += len(times)
        codes = np.array(rows, dtype=np.int64).reshape(-1, SENSORS)
        values, enabled = convert_codes(codes, self.configs)
        return np.array(times, dtype=float), values, np.array(markers, dtype=bool), enabled


def _run_source(setup: SimulatedSetup, reads, mark_before):
    """Read ``reads`` from the bench's source, keeping the bytes each pulled.

    Wraps the source's ``link.pump_samples`` so the oracle decodes exactly
    the wire bytes every ``read_block`` call decoded.
    """
    source = setup.source
    pulled: list[bytes] = []
    pump = source.link.pump_samples

    def recording_pump(n):
        data = pump(n)
        pulled.append(bytes(data))
        return data

    source.link.pump_samples = recording_pump
    source.start()
    blocks = []
    for i, n in enumerate(reads):
        if mark_before(i):
            source.mark()
        blocks.append(source.read_block(n))
    source.stop()
    assert len(pulled) == len(blocks)
    return blocks, pulled


def _assert_matches_oracle(setup: SimulatedSetup, blocks, pulled) -> None:
    """Every block equals the oracle's decode of its bytes, bit for bit."""
    oracle = _ScalarOracle(setup.source.configs)
    for block, data in zip(blocks, pulled):
        times, values, markers, enabled = oracle.decode(data)
        assert np.array_equal(block.times, times)
        assert np.array_equal(block.values, values)
        assert np.array_equal(block.markers, markers)
        assert np.array_equal(block.enabled, enabled)
    health = setup.source.health.as_dict()
    assert {key: health[key] for key in oracle.counters()} == oracle.counters()


@pytest.mark.parametrize(
    "n_pairs,faults,seed",
    [
        (1, None, 0),
        (2, None, 0),
        (4, None, 0),
        (1, "drop:0.01", 0),
        (1, "drop:0.01", 1),
        (2, "flip:0.005", 2),
        (4, "partial:0.3", 3),
        (2, "drop:0.01, flip:0.005", 4),
        (1, "burst:0.002", 0),
        (2, "stall:0.01", 1),
        (4, "drop:0.02, partial:0.5", 2),
    ],
)
def test_vectorized_source_matches_scalar(n_pairs, faults, seed):
    """Each read decodes exactly as the per-event reference decodes its bytes.

    Samples, markers and the decode counters of ``StreamHealth`` must
    agree in every fuzzed fault scenario, read by read.
    """
    setup = SimulatedSetup(
        _MODULES[:n_pairs],
        seed=123,
        calibration_samples=1024,
        faults=faults,
        fault_seed=seed,
    )
    load = ElectronicLoad()
    load.set_current(4.0)
    setup.connect(0, LoadedSupplyRail(LabSupply(12.0), load))
    blocks, pulled = _run_source(setup, _READS, mark_before=lambda i: i % 2 == 1)
    # StreamHealth is a view over registry counters: both sides of the
    # view must agree byte-for-byte.
    assert setup.source.health.as_dict() == StreamHealth.counters_in(setup.registry)
    _assert_matches_oracle(setup, blocks, pulled)
    setup.close()


def test_vectorized_source_marker_interleaving_matches_scalar():
    """Markers land on the same sample index as in the reference."""
    setup = SimulatedSetup(_MODULES[:2], seed=7, calibration_samples=1024)
    blocks, pulled = _run_source(setup, (40, 25, 60, 10), mark_before=lambda i: True)
    _assert_matches_oracle(setup, blocks, pulled)
    setup.close()
    assert sum(np.count_nonzero(b.markers) for b in blocks) == 4  # one per read
