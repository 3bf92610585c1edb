"""PowerSensor3 wire protocol.

Sensor data travels as 2-byte packets carrying a 10-bit value plus 6 bits
of metadata (paper, Section III-B): the 3-bit sensor index, a marker bit,
and one flag bit in each byte to tell first bytes from second bytes::

    byte 0:  1 | sensor[2:0] | marker | value[9:7]
    byte 1:  0 | value[6:0]

The marker bit is only meaningful for sensor 0; a set marker bit with a
non-zero sensor index is repurposed — index 7 with the marker bit carries
the 10-bit device timestamp (microseconds, wrapping at 1024) that precedes
each sample set.  Sensor 7's ordinary data packets always have marker 0.

:class:`StreamDecoder` is an incremental parser: feed it arbitrary byte
chunks, get back decoded events.  It resynchronises on framing errors by
searching for the next first-byte flag, mirroring the robustness the real
host library needs on a lossy serial link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.common.errors import ProtocolError

VALUE_BITS = 10
VALUE_MAX = (1 << VALUE_BITS) - 1
SENSOR_MAX = 7
TIMESTAMP_SENSOR = 7
TIMESTAMP_WRAP_US = 1 << VALUE_BITS  # 10-bit microsecond counter


@dataclass(frozen=True)
class SensorReading:
    """One decoded sensor value."""

    sensor: int
    value: int  # averaged 10-bit ADC code
    marker: bool = False


@dataclass(frozen=True)
class Timestamp:
    """Device timestamp event (microseconds modulo 1024)."""

    micros: int


def encode_sensor_packet(sensor: int, value: int, marker: bool = False) -> bytes:
    """Encode one sensor reading as two bytes."""
    if not 0 <= sensor <= SENSOR_MAX:
        raise ProtocolError(f"sensor index {sensor} out of range 0..{SENSOR_MAX}")
    if not 0 <= value <= VALUE_MAX:
        raise ProtocolError(f"value {value} out of 10-bit range")
    if marker and sensor != 0:
        raise ProtocolError("marker bit is only valid for sensor 0")
    byte0 = 0x80 | (sensor << 4) | (int(marker) << 3) | ((value >> 7) & 0x07)
    byte1 = value & 0x7F
    return bytes((byte0, byte1))


def encode_timestamp_packet(micros: int) -> bytes:
    """Encode a device timestamp (wraps to 10 bits) as two bytes."""
    value = micros % TIMESTAMP_WRAP_US
    byte0 = 0x80 | (TIMESTAMP_SENSOR << 4) | (1 << 3) | ((value >> 7) & 0x07)
    byte1 = value & 0x7F
    return bytes((byte0, byte1))


class StreamDecoder:
    """Incremental decoder of the sensor data stream.

    Feed byte chunks with :meth:`feed`; it yields :class:`SensorReading`
    and :class:`Timestamp` events.  A second byte without a preceding first
    byte (or vice versa) increments :attr:`resync_count` and the decoder
    skips to the next byte with the first-byte flag.
    """

    def __init__(self) -> None:
        self._pending_first: int | None = None
        self.resync_count = 0
        self.packet_count = 0

    def feed(self, data: bytes) -> Iterator[SensorReading | Timestamp]:
        for byte in data:
            if byte & 0x80:  # first byte of a packet
                if self._pending_first is not None:
                    self.resync_count += 1  # dangling first byte dropped
                self._pending_first = byte
                continue
            if self._pending_first is None:
                self.resync_count += 1  # dangling second byte dropped
                continue
            first = self._pending_first
            self._pending_first = None
            sensor = (first >> 4) & 0x07
            marker = bool(first & 0x08)
            value = ((first & 0x07) << 7) | (byte & 0x7F)
            self.packet_count += 1
            if sensor == TIMESTAMP_SENSOR and marker:
                yield Timestamp(micros=value)
            else:
                if sensor != 0:
                    marker = False  # repurposed bit, not a data marker
                yield SensorReading(sensor=sensor, value=value, marker=marker)

    def reset(self) -> None:
        self._pending_first = None
        self.resync_count = 0
        self.packet_count = 0


@dataclass(frozen=True)
class DecodedBlock:
    """Vectorised decode result: parallel arrays, one entry per packet.

    The arrays are in stream order.  ``is_timestamp`` marks timestamp
    packets (``sensors`` is :data:`TIMESTAMP_SENSOR` there and ``values``
    the raw 10-bit microsecond counter); for data packets ``markers`` is
    the sensor-0 marker bit (always ``False`` for other sensors, whose
    marker bit is repurposed — see :class:`StreamDecoder`).
    """

    sensors: np.ndarray  # (p,) uint8, 3-bit sensor index
    values: np.ndarray  # (p,) int64, 10-bit value
    markers: np.ndarray  # (p,) bool
    is_timestamp: np.ndarray  # (p,) bool

    def __len__(self) -> int:
        return int(self.sensors.size)

    def events(self) -> list[SensorReading | Timestamp]:
        """Materialise the block as scalar decoder events (for tests)."""
        out: list[SensorReading | Timestamp] = []
        for sensor, value, marker, is_ts in zip(
            self.sensors, self.values, self.markers, self.is_timestamp
        ):
            if is_ts:
                out.append(Timestamp(micros=int(value)))
            else:
                out.append(
                    SensorReading(sensor=int(sensor), value=int(value), marker=bool(marker))
                )
        return out


_EMPTY_BLOCK = DecodedBlock(
    sensors=np.zeros(0, dtype=np.uint8),
    values=np.zeros(0, dtype=np.int64),
    markers=np.zeros(0, dtype=bool),
    is_timestamp=np.zeros(0, dtype=bool),
)


def decode_block(
    data: bytes | np.ndarray, pending_first: int | None = None
) -> tuple[DecodedBlock, int | None, int]:
    """Decode a byte buffer into packet arrays in one vectorised pass.

    Stateless core of :class:`BlockDecoder`: ``pending_first`` is the
    dangling first byte carried in from the previous chunk (or ``None``).
    Returns ``(block, new_pending_first, resyncs)`` where ``resyncs``
    counts exactly the packets the scalar :class:`StreamDecoder` would
    have dropped while resynchronising on the same bytes.

    Pairing is done by flag-bit masking: a packet ends at every second
    byte (bit 7 clear) directly preceded by a first byte (bit 7 set); a
    first byte followed by another first byte was a dangling first, a
    second byte not preceded by a first byte a dangling second.
    """
    buf = np.frombuffer(bytes(data) if not isinstance(data, np.ndarray) else data, np.uint8)
    if pending_first is not None:
        buf = np.concatenate([np.array([pending_first], dtype=np.uint8), buf])
    n = buf.size
    if n == 0:
        return _EMPTY_BLOCK, pending_first, 0

    first_flag = (buf & 0x80) != 0
    prev_flag = np.empty(n, dtype=bool)
    prev_flag[0] = False  # the first byte of the buffer has no predecessor
    prev_flag[1:] = first_flag[:-1]

    second_idx = np.flatnonzero(~first_flag & prev_flag)
    resyncs = int(np.count_nonzero(first_flag & prev_flag))  # dangling firsts
    resyncs += int(np.count_nonzero(~first_flag & ~prev_flag))  # dangling seconds
    new_pending = int(buf[-1]) if first_flag[-1] else None

    if second_idx.size == 0:
        return _EMPTY_BLOCK, new_pending, resyncs
    firsts = buf[second_idx - 1]
    seconds = buf[second_idx]
    sensors = (firsts >> 4) & 0x07
    marker_bits = (firsts & 0x08) != 0
    values = ((firsts & 0x07).astype(np.int64) << 7) | (seconds & 0x7F)
    is_timestamp = (sensors == TIMESTAMP_SENSOR) & marker_bits
    markers = marker_bits & (sensors == 0)
    return (
        DecodedBlock(
            sensors=sensors, values=values, markers=markers, is_timestamp=is_timestamp
        ),
        new_pending,
        resyncs,
    )


class BlockDecoder:
    """Stateful vectorised counterpart of :class:`StreamDecoder`.

    Same incremental contract (arbitrary chunking, resync on framing
    errors, ``resync_count``/``packet_count`` accounting) but decoding a
    whole buffer per call into :class:`DecodedBlock` arrays instead of
    yielding per-packet events.  ``tests/test_block_decoder.py`` pins it
    byte-for-byte to the scalar decoder, which remains the reference
    implementation.
    """

    def __init__(self) -> None:
        self._pending_first: int | None = None
        self.resync_count = 0
        self.packet_count = 0

    def decode(self, data: bytes) -> DecodedBlock:
        block, self._pending_first, resyncs = decode_block(data, self._pending_first)
        self.resync_count += resyncs
        self.packet_count += len(block)
        return block

    def feed(self, data: bytes) -> Iterator[SensorReading | Timestamp]:
        """Event-oriented shim with :class:`StreamDecoder` semantics."""
        yield from self.decode(data).events()

    def reset(self) -> None:
        self._pending_first = None
        self.resync_count = 0
        self.packet_count = 0


class TimestampUnwrapper:
    """Reconstruct continuous device time from the wrapping 10-bit counter.

    The device emits one timestamp per 50 us sample set while the counter
    wraps every 1024 us, so consecutive timestamps always advance by less
    than half the wrap period and unwrapping is unambiguous.
    """

    def __init__(self) -> None:
        self._last_raw: int | None = None
        self._accumulated_us = 0

    def update(self, raw_micros: int) -> float:
        """Feed a raw 10-bit timestamp; returns continuous seconds."""
        if not 0 <= raw_micros < TIMESTAMP_WRAP_US:
            raise ProtocolError(f"raw timestamp {raw_micros} out of 10-bit range")
        if self._last_raw is None:
            self._accumulated_us = raw_micros
        else:
            delta = (raw_micros - self._last_raw) % TIMESTAMP_WRAP_US
            self._accumulated_us += delta
        self._last_raw = raw_micros
        return self._accumulated_us * 1e-6

    def update_block(self, raw_micros: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`update` over a batch of raw timestamps.

        Returns the continuous seconds per timestamp; the unwrapper state
        afterwards is identical to feeding the batch through
        :meth:`update` one value at a time.  The values are decoded
        timestamp packets, 10-bit by construction, so unlike
        :meth:`update` it does not check their range.
        """
        raw = np.asarray(raw_micros, dtype=np.int64)
        n = raw.size
        if n == 0:
            return np.zeros(0)
        # Each step is the forward distance from the previous counter
        # value, mod the wrap (a power of two).  A fresh unwrapper has a
        # total of 0 and takes its first value as the first step.
        last = 0 if self._last_raw is None else self._last_raw
        steps = np.empty(n, dtype=np.int64)
        np.subtract(raw[1:], raw[:-1], out=steps[1:])
        steps[0] = raw[0] - last
        steps &= TIMESTAMP_WRAP_US - 1
        steps[0] += self._accumulated_us
        accumulated = np.add.accumulate(steps, out=steps)
        self._last_raw = int(raw[-1])
        self._accumulated_us = int(accumulated[-1])
        return accumulated * 1e-6

    @property
    def seconds(self) -> float:
        return self._accumulated_us * 1e-6
