"""Sample sources: where the host library's 20 kHz stream comes from.

Two implementations with identical semantics:

* :class:`ProtocolSampleSource` — byte-accurate: pulls wire bytes through
  the virtual serial link and decodes them with the stream parser.  This is
  what every protocol/integration test uses.
* :class:`DirectSampleSource` — reads the baseboard's averaged ADC codes
  directly (numpy end to end), for experiments that need 10^6..10^8
  samples.  The sensor physics, ADC quantisation, firmware averaging and
  conversion math are the *same code*; only packet encode/decode is
  skipped.  ``tests/test_sources.py`` pins the two paths to each other.

The protocol source decodes in two tiers, fastest applicable first:

1. **Template fast path** — a clean stream is strictly periodic
   (``timestamp + one packet per enabled sensor``), so one vectorised
   mask-and-compare proves the whole buffer well-formed and the decode
   collapses to reshapes and bitwise ops.
2. **Generic vectorised path** — any other buffer (corruption, odd
   chunking, carried partial samples) goes through
   :class:`~repro.firmware.protocol.BlockDecoder` plus a vectorised
   grouping pass that splits packets into sample sets on timestamp
   packets; only the rare corrupted stretches fall back to per-boundary
   Python dictionaries.

``tests/test_block_decoder.py`` pins both tiers to a per-event reference
decoder (``StreamDecoder`` plus scalar timestamp unwrapping), including
under every fault model.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qsl

import numpy as np

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, DeviceError, ProtocolError
from repro.firmware.commands import Command
from repro.firmware.protocol import BlockDecoder, TIMESTAMP_SENSOR, TimestampUnwrapper
from repro.firmware.version import FIRMWARE_VERSION
from repro.core.health import StreamHealth
from repro.observability import MetricsRegistry, Tracer
from repro.hardware.baseboard import Baseboard
from repro.hardware.eeprom import RECORD_SIZE, SENSORS, SensorConfig, VirtualEeprom
from repro.transport.link import VirtualSerialLink

#: ADC reconstruction constants shared by firmware display, host and direct path.
ADC_VREF = 3.3
ADC_LEVELS = 1024
ADC_LSB = ADC_VREF / ADC_LEVELS


@dataclass
class SampleBlock:
    """A contiguous block of decoded samples in physical units.

    ``values[:, 2*k]`` is pair k's current (A), ``values[:, 2*k + 1]`` its
    voltage (V).  Disabled sensors hold zeros.
    """

    times: np.ndarray  # (n,) reconstructed seconds
    values: np.ndarray  # (n, 8) physical units
    markers: np.ndarray  # (n,) bool
    enabled: np.ndarray  # (8,) bool

    def __len__(self) -> int:
        return int(self.times.size)

    def slice(self, start: int, stop: int | None = None) -> "SampleBlock":
        """Samples ``start:stop`` as views of this block's arrays."""
        return SampleBlock(
            times=self.times[start:stop],
            values=self.values[start:stop],
            markers=self.markers[start:stop],
            enabled=self.enabled,
        )

    def pair_power(self, pair: int) -> np.ndarray:
        """Instantaneous power of one pair, W, per sample."""
        return self.values[:, 2 * pair] * self.values[:, 2 * pair + 1]

    def total_power(self) -> np.ndarray:
        """Instantaneous total power across enabled pairs, W, per sample."""
        currents = self.values[:, 0::2]
        volts = self.values[:, 1::2]
        return (currents * volts).sum(axis=1)

    def pair_current(self, pair: int) -> np.ndarray:
        return self.values[:, 2 * pair]

    def pair_voltage(self, pair: int) -> np.ndarray:
        return self.values[:, 2 * pair + 1]


def _conversion_arrays(
    configs: list[SensorConfig],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sensor ``(enabled, vref, slope)`` arrays, padded to 8 sensors.

    Disabled sensors get a unit slope so the vectorised division never
    hits a configured zero slope.
    """
    enabled = np.zeros(SENSORS, dtype=bool)
    vref = np.zeros(SENSORS)
    slope = np.ones(SENSORS)
    for sensor, config in enumerate(configs[:SENSORS]):
        if not config.enabled:
            continue
        enabled[sensor] = True
        vref[sensor] = config.vref
        slope[sensor] = config.slope
    return enabled, vref, slope


def convert_codes(
    codes: np.ndarray, configs: list[SensorConfig]
) -> tuple[np.ndarray, np.ndarray]:
    """Convert averaged 10-bit codes (n, 8) to physical units.

    Returns ``(values, enabled)`` where values is (n, 8) float (amps on
    even columns, volts on odd columns) and enabled the per-sensor mask.
    Disabled sensors convert to zero.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != SENSORS:
        raise ValueError(f"codes must be (n, {SENSORS}), got {codes.shape}")
    enabled, vref, slope = _conversion_arrays(configs)
    adc_volts = (codes.astype(float) + 0.5) * ADC_LSB
    values = (adc_volts - vref) / slope
    values[:, ~enabled] = 0.0
    return values, enabled


class SampleSource(abc.ABC):
    """The formal contract every sample source implements.

    :class:`~repro.core.powersensor.PowerSensor`, the serving daemon and
    the fleet layer program against exactly this surface — nothing else.
    What used to be implicit duck typing between the protocol, direct and
    remote sources is now checkable: a new source kind subclasses this,
    implements the abstract methods, and every consumer (CLIs, psserve,
    PMT, :class:`~repro.core.fleet.Fleet`) works unchanged.

    Required attributes (set by concrete ``__init__``):

    * ``device`` — optional device name; when set, every stream/decode
      metric and span this source emits carries a ``device=`` label.
    * ``version`` — firmware/protocol version string.
    * ``streaming`` — True between :meth:`start` and :meth:`stop`.
    * ``configs`` — the eight :class:`SensorConfig` records.
    * ``health`` / ``registry`` / ``tracer`` — observability handles.
    """

    device: str | None = None
    version: str = ""
    streaming: bool = False
    configs: list[SensorConfig]
    health: StreamHealth
    registry: MetricsRegistry
    tracer: Tracer

    @property
    @abc.abstractmethod
    def sample_rate(self) -> float:
        """Nominal output sample rate, Hz."""

    @abc.abstractmethod
    def start(self) -> None:
        """Begin streaming samples."""

    @abc.abstractmethod
    def stop(self) -> None:
        """Stop streaming samples."""

    @abc.abstractmethod
    def mark(self) -> None:
        """Inject a marker into the sample stream."""

    @abc.abstractmethod
    def refresh_configs(self) -> None:
        """Re-read the sensor configuration from the device."""

    @abc.abstractmethod
    def write_configs(self, configs: list[SensorConfig]) -> None:
        """Persist a full set of sensor configs to the device."""

    @abc.abstractmethod
    def read_block(self, n_samples: int) -> SampleBlock:
        """Pull the next ``n_samples`` output samples."""

    def close(self) -> None:
        """Release the source (default: stop streaming if running)."""
        if self.streaming:
            self.stop()

    def _metric_labels(self) -> dict[str, str]:
        """Labels for this source's metrics: ``device=`` when named.

        Unnamed sources keep emitting unlabelled series, so single-device
        benches (and everything reading ``stream_*_total`` by bare name)
        see exactly the pre-fleet metric surface.
        """
        return {"device": self.device} if self.device else {}


class ProtocolSampleSource(SampleSource):
    """Byte-accurate source over the virtual serial link."""

    def __init__(
        self,
        link: VirtualSerialLink,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        device: str | None = None,
    ) -> None:
        self.link = link
        self.device = device
        self._decoder = BlockDecoder()
        self._unwrapper = TimestampUnwrapper()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        self.health = StreamHealth(self.registry, device=device)
        self._bytes_read = self.health.counter("bytes_read")
        self._packets_decoded = self.health.counter("packets_decoded")
        self._samples_decoded = self.health.counter("samples_decoded")
        labels = self._metric_labels()
        self._bytes_gauge = self.registry.gauge(
            "decode_last_block_bytes",
            help="wire bytes in the last decoded block",
            **labels,
        )
        self._samples_gauge = self.registry.gauge(
            "decode_last_block_samples",
            help="samples in the last decoded block",
            **labels,
        )
        self._throughput_gauge = self.registry.gauge(
            "decode_samples_per_second",
            help="decode throughput of the last non-trivial block",
            **labels,
        )
        self._span_labels = labels
        self.streaming = False
        self.configs: list[SensorConfig] = []
        self.version = self._read_version()
        self.refresh_configs()
        self._pending_sample: dict[int, int] = {}
        self._pending_marker = False
        self._have_timestamp = False
        self._current_time = 0.0

    @property
    def sample_rate(self) -> float:
        return self.link.firmware.baseboard.timing.output_rate_hz

    def _read_version(self) -> str:
        self.link.write(Command.VERSION.value)
        raw = self.link.read()
        if not raw.endswith(b"\x00"):
            raise ProtocolError("version response not NUL-terminated")
        version = raw[:-1].decode("ascii")
        if version.split()[-1].split(".")[0] != FIRMWARE_VERSION.split()[-1].split(".")[0]:
            raise DeviceError(f"incompatible firmware version {version!r}")
        return version

    def refresh_configs(self) -> None:
        self.link.write(Command.READ_CONFIG.value)
        raw = self.link.read(RECORD_SIZE * SENSORS)
        self.configs = VirtualEeprom.unpack(raw).configs
        self._rebuild_caches()

    def write_configs(self, configs: list[SensorConfig]) -> None:
        """Write a full set of sensor configs to the device EEPROM."""
        image = VirtualEeprom(configs=list(configs)).pack()
        self.link.write(Command.WRITE_CONFIG.value + image)
        self.refresh_configs()

    def _rebuild_caches(self) -> None:
        """Precompute per-sensor conversion arrays and the wire template.

        Recomputed whenever the configs change (connect, config write), so
        the per-block hot path never loops over config objects.
        """
        enabled, vref, slope = _conversion_arrays(self.configs)
        enabled.flags.writeable = False  # shared by every block until the next change
        self._enabled_mask = enabled
        self._enabled_idx = np.flatnonzero(enabled)
        self._n_enabled = int(self._enabled_idx.size)
        # Every enabled sensor's 10-bit codes in physical units, one row of
        # ADC_LEVELS per sensor: a block converts by one gather.
        codes = np.arange(ADC_LEVELS, dtype=float)
        table = (codes + 0.5) * ADC_LSB - vref[self._enabled_idx, None]
        table /= slope[self._enabled_idx, None]
        self._units = table.reshape(-1)
        self._unit_rows = ADC_LEVELS * np.arange(self._n_enabled)
        # A clean sample set is [timestamp, enabled sensors in index order];
        # one mask-and-compare of its little-endian packet words (first
        # byte low, second byte high) against these templates proves a
        # whole buffer well-formed (see _decode_template).  Every second
        # byte has its flag bit clear.  Sensor 0's marker bit is left
        # free; every other data packet must have it clear (set would
        # decode differently: timestamp for sensor 7, cleared-marker data
        # for 1..6 — both handled by the generic path).
        n_fields = 1 + self._n_enabled
        self._tmpl_mask = np.full(n_fields, 0x80F8, dtype=np.uint16)
        self._tmpl_val = np.empty(n_fields, dtype=np.uint16)
        self._tmpl_val[0] = 0x80 | (TIMESTAMP_SENSOR << 4) | 0x08
        for field, sensor in enumerate(self._enabled_idx, start=1):
            self._tmpl_val[field] = 0x80 | (int(sensor) << 4)
            if sensor == 0:
                self._tmpl_mask[field] = 0x80F0  # marker bit free on sensor 0
        self._bytes_per_sample = 2 * n_fields
        self._sensor0_enabled = bool(self._n_enabled and self._enabled_idx[0] == 0)

    def start(self) -> None:
        self.link.write(Command.START_STREAMING.value)
        self.streaming = True

    def stop(self) -> None:
        self.link.write(Command.STOP_STREAMING.value)
        self.streaming = False

    def mark(self) -> None:
        self.link.write(Command.MARKER.value)

    def read_block(self, n_samples: int) -> SampleBlock:
        """Pull and decode ``n_samples`` output samples."""
        data = self.link.pump_samples(n_samples)
        return self._decode(data, n_samples)

    def read_block_raw(self, n_samples: int) -> tuple[SampleBlock, bytes]:
        """Pull ``n_samples``, returning the decoded block *and* the wire bytes.

        The serving layer relays the raw bytes to subscribers verbatim
        (so remote decode is byte-for-byte the local decode) while using
        the decoded block for server-side windowing — one pump, no
        double decode.
        """
        data = self.link.pump_samples(n_samples)
        block = self._decode(data, n_samples)
        # A producer-backed link may hand back a ring view (valid only
        # until the next pump); the serving layer keeps raw bytes around
        # for framing, so pin them down here.
        if not isinstance(data, bytes):
            data = bytes(data)
        return block, data

    # ------------------------------------------------------------------ #
    # Decoding                                                           #
    # ------------------------------------------------------------------ #

    def _decode(self, data: bytes, n_expected: int) -> SampleBlock:
        self._bytes_read.inc(len(data))
        with self.tracer.span("decode", tier="template", **self._span_labels) as span:
            block = self._decode_template(data)
            if block is None:
                span.relabel(tier="block")
                block = self._decode_generic(data)
        self._observe_decode(len(data), len(block), span.duration)
        return block

    def _observe_decode(
        self, n_bytes: int, n_samples: int, duration: float | None
    ) -> None:
        """Update the throughput gauges after one decode call."""
        self._bytes_gauge.set(n_bytes)
        self._samples_gauge.set(n_samples)
        if duration and n_samples:
            self._throughput_gauge.set(n_samples / duration)

    def _empty_block(self) -> SampleBlock:
        return SampleBlock(
            times=np.zeros(0),
            values=np.zeros((0, SENSORS)),
            markers=np.zeros(0, dtype=bool),
            enabled=self._enabled_mask,
        )

    def _convert(self, codes: np.ndarray) -> np.ndarray:
        """The enabled sensors' codes ``(n, n_enabled)`` to physical units ``(n, 8)``.

        Each code is looked up in its sensor's row of the conversion
        table; disabled sensors read zero.
        """
        values = np.zeros((codes.shape[0], SENSORS))
        values[:, self._enabled_idx] = self._units.take(codes + self._unit_rows)
        return values

    def _decode_template(self, data: bytes) -> SampleBlock | None:
        """Fast path: decode a buffer that is a clean run of sample sets.

        Returns ``None`` (falling back to the generic path) unless the
        buffer is byte-for-byte a whole number of well-formed sample sets
        and no partial-sample state is carried in — which one vectorised
        template comparison verifies.
        """
        if (
            self._decoder._pending_first is not None
            or self._pending_sample
            or self._pending_marker
            or self._n_enabled == 0
        ):
            return None
        size = len(data)
        if size == 0 or size % self._bytes_per_sample:
            return None
        words = np.frombuffer(data, dtype="<u2").reshape(-1, 1 + self._n_enabled)
        if np.count_nonzero((words & self._tmpl_mask) != self._tmpl_val):
            return None

        # A packet's value is the first byte's low three bits, then the
        # second byte's seven (its flag bit is clear).
        values = words & 0x07
        values <<= 7
        values |= words >> 8
        n_samples = words.shape[0]
        times = self._unwrapper.update_block(values[:, 0])
        if self._sensor0_enabled:
            markers = (words[:, 1] & 0x08) != 0
        else:
            markers = np.zeros(n_samples, dtype=bool)

        packets = n_samples * (1 + self._n_enabled)
        self._decoder.packet_count += packets
        self._packets_decoded.inc(packets)
        self._samples_decoded.inc(n_samples)
        self._have_timestamp = True
        self._current_time = float(times[-1])
        return SampleBlock(
            times=times,
            values=self._convert(values[:, 1:]),
            markers=markers,
            enabled=self._enabled_mask,
        )

    def _decode_generic(self, data: bytes) -> SampleBlock:
        """Vectorised decode of an arbitrary (possibly corrupted) buffer."""
        resyncs_before = self._decoder.resync_count
        block = self._decoder.decode(data)
        self.health.packets_decoded += len(block)
        self.health.packets_dropped += self._decoder.resync_count - resyncs_before
        times, codes, markers = self._group_samples(block)
        self.health.samples_decoded += times.size
        if not times.size:
            return self._empty_block()
        return SampleBlock(
            times=times,
            values=self._convert(codes[:, self._enabled_idx]),
            markers=markers,
            enabled=self._enabled_mask,
        )

    def _group_samples(
        self, block
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group decoded packets into complete sample sets.

        Matches a per-event loop exactly: a sample set is closed at
        each timestamp packet (and at end of buffer) once every enabled
        sensor has reported since the previous close; incomplete sets are
        carried across calls.  Boundaries between complete sets are
        resolved vectorised; only boundaries involved in carried state
        (rare — corruption or chunk splits) take a dict-based slow path.
        """
        is_ts = block.is_timestamp
        idx_ts = np.flatnonzero(is_ts)
        m = int(idx_ts.size)
        if m:
            ts_times = self._unwrapper.update_block(block.values[idx_ts])
        else:
            ts_times = np.zeros(0)

        r_idx = np.flatnonzero(~is_ts)
        r_sensor = block.sensors[r_idx].astype(np.int64)
        r_value = block.values[r_idx]
        r_marker = block.markers[r_idx]
        # Segment s holds the readings between timestamp s-1 and timestamp
        # s; segment 0 is pre-first-timestamp, segment m the tail.
        seg = np.searchsorted(idx_ts, r_idx)
        if not self._have_timestamp:
            # Readings before the first-ever timestamp have no time anchor
            # and are discarded.
            keep = seg >= 1
            if not keep.all():
                r_sensor, r_value, r_marker, seg = (
                    r_sensor[keep],
                    r_value[keep],
                    r_marker[keep],
                    seg[keep],
                )

        n_enabled = self._n_enabled
        # seg is non-decreasing (stream order), so slice bounds come from
        # one searchsorted; boundary j closes segment j.
        seg_starts = np.searchsorted(seg, np.arange(m + 2))
        if r_sensor.size:
            uniq = np.unique(seg * SENSORS + r_sensor)
            seg_distinct = np.bincount(uniq // SENSORS, minlength=m + 1)
        else:
            seg_distinct = np.zeros(m + 1, dtype=np.int64)

        # Boundary j (at timestamp j; boundary m is end-of-buffer) surely
        # succeeds if its own segment alone covers every enabled sensor —
        # accumulated carry can only add sensors.  Everything else is
        # resolved in the sequential walk below.
        have_ts0 = self._have_timestamp
        opt = seg_distinct >= n_enabled
        opt[0] &= have_ts0
        boundary_time = np.empty(m + 1)
        boundary_time[0] = self._current_time
        if m:
            boundary_time[1:] = ts_times

        success = opt.copy()
        simple = np.ones(m + 1, dtype=bool)
        merged_rows: list[tuple[int, dict[int, int], bool]] = []
        pending = dict(self._pending_sample)
        pending_marker = self._pending_marker

        need = np.flatnonzero(~opt).tolist()
        ptr = 0
        if pending or pending_marker:
            cur = 0
        elif need:
            cur, ptr = need[0], 1
        else:
            cur = -1
        while 0 <= cur <= m:
            simple[cur] = False
            lo, hi = int(seg_starts[cur]), int(seg_starts[cur + 1])
            for i in range(lo, hi):
                pending[int(r_sensor[i])] = int(r_value[i])
            if hi > lo and r_marker[lo:hi].any():
                pending_marker = True
            ok = (have_ts0 or cur >= 1) and len(pending) >= n_enabled
            success[cur] = ok
            if ok:
                merged_rows.append((cur, pending, pending_marker))
                pending = {}
                pending_marker = False
            elif pending or pending_marker:
                cur += 1  # the carry flows into the next boundary
                continue
            # Jump to the next boundary whose outcome is still unknown.
            nxt = -1
            while ptr < len(need):
                cand = need[ptr]
                ptr += 1
                if cand > cur:
                    nxt = cand
                    break
            cur = nxt

        self._pending_sample = pending
        self._pending_marker = pending_marker
        if m:
            self._current_time = float(ts_times[-1])
            self._have_timestamp = True

        succ_idx = np.flatnonzero(success)
        n_out = int(succ_idx.size)
        times = boundary_time[succ_idx]
        codes = np.zeros((n_out, SENSORS), dtype=np.int64)
        markers = np.zeros(n_out, dtype=bool)
        if n_out:
            out_row = np.full(m + 1, -1, dtype=np.int64)
            out_row[succ_idx] = np.arange(n_out)
            take = simple[seg] & success[seg]
            if take.any():
                rows = out_row[seg[take]]
                # Fancy assignment keeps the last write per (row, sensor),
                # matching the dict's duplicate-overwrite semantics.
                codes[rows, r_sensor[take]] = r_value[take]
                marked = r_marker[take]
                if marked.any():
                    markers[rows[marked]] = True
            for j, row_dict, marker_flag in merged_rows:
                if not success[j]:
                    continue
                row = out_row[j]
                for sensor, value in row_dict.items():
                    codes[row, sensor] = value
                markers[row] = marker_flag
        return times, codes, markers


class DirectSampleSource(SampleSource):
    """Vectorised source reading the baseboard directly (no byte encoding)."""

    def __init__(
        self,
        baseboard: Baseboard,
        eeprom: VirtualEeprom,
        clock: VirtualClock | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        device: str | None = None,
    ) -> None:
        self.baseboard = baseboard
        self.eeprom = eeprom
        self.device = device
        self.clock = clock or VirtualClock()
        self.clock.configure_ticks(baseboard.timing.output_interval_s)
        self.version = FIRMWARE_VERSION
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        self.health = StreamHealth(self.registry, device=device)
        labels = self._metric_labels()
        self._samples_gauge = self.registry.gauge(
            "decode_last_block_samples",
            help="samples in the last decoded block",
            **labels,
        )
        self._throughput_gauge = self.registry.gauge(
            "decode_samples_per_second",
            help="decode throughput of the last non-trivial block",
            **labels,
        )
        self._marker_pending = 0
        self.streaming = False

    @property
    def configs(self) -> list[SensorConfig]:
        return self.eeprom.configs

    @property
    def sample_rate(self) -> float:
        return self.baseboard.timing.output_rate_hz

    def refresh_configs(self) -> None:  # config lives in-process; nothing to do
        pass

    def write_configs(self, configs: list[SensorConfig]) -> None:
        if len(configs) != SENSORS:
            raise ValueError(f"expected {SENSORS} configs")
        self.eeprom.configs = list(configs)

    def start(self) -> None:
        self.streaming = True

    def stop(self) -> None:
        self.streaming = False

    def mark(self) -> None:
        self._marker_pending += 1

    def read_block(self, n_samples: int) -> SampleBlock:
        timing = self.baseboard.timing
        if not self.streaming:
            self.clock.tick(n_samples)
            return SampleBlock(
                times=np.zeros(0),
                values=np.zeros((0, SENSORS)),
                markers=np.zeros(0, dtype=bool),
                enabled=np.array([c.enabled for c in self.configs]),
            )
        start = time.perf_counter()
        origin, first = self.clock.origin, self.clock.ticks
        codes = self.baseboard.averaged_codes(origin, n_samples, first)
        self.clock.tick(n_samples)
        self.health.samples_decoded += n_samples
        values, enabled = convert_codes(codes, self.configs)
        elapsed = time.perf_counter() - start
        self._samples_gauge.set(n_samples)
        if n_samples and elapsed > 0:
            self._throughput_gauge.set(n_samples / elapsed)
        # Match the firmware timestamp convention (after 3 of 6 scans),
        # including its microsecond rounding.
        times = origin + np.arange(first, first + n_samples) * timing.output_interval_s
        times = np.round((times + 3 * timing.scan_time_s) * 1e6) * 1e-6
        markers = np.zeros(n_samples, dtype=bool)
        n_mark = min(self._marker_pending, n_samples)
        if n_mark:
            markers[:n_mark] = True
            self._marker_pending -= n_mark
        return SampleBlock(times=times, values=values, markers=markers, enabled=enabled)


# --------------------------------------------------------------------- #
# URI device specs                                                      #
# --------------------------------------------------------------------- #

#: Typed coercion for URI query options (everything else stays a string).
_SPEC_INT_KEYS = frozenset({"seed", "fault_seed", "window", "calibration_samples"})
_SPEC_FLOAT_KEYS = frozenset({"speed", "connect_timeout", "t0", "t1"})
_SPEC_BOOL_KEYS = frozenset({"direct", "loop", "calibrate"})
_SPEC_TRUE = frozenset({"1", "true", "yes", "on", ""})
_SPEC_FALSE = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class SourceSpec:
    """A parsed ``scheme://target?key=value`` device spec."""

    scheme: str
    target: str
    options: dict[str, object] = field(default_factory=dict)

    @property
    def device(self) -> str | None:
        """The device name carried in the spec's ``device=`` option."""
        name = self.options.get("device")
        return str(name) if name else None


def _coerce_option(key: str, value: str) -> object:
    try:
        if key in _SPEC_INT_KEYS:
            return int(value)
        if key in _SPEC_FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise ConfigurationError(f"option {key}={value!r} is not a number") from None
    if key in _SPEC_BOOL_KEYS:
        lowered = value.strip().lower()
        if lowered in _SPEC_TRUE:
            return True
        if lowered in _SPEC_FALSE:
            return False
        raise ConfigurationError(f"option {key}={value!r} is not a boolean")
    return value


def parse_source_spec(spec: str) -> SourceSpec:
    """Parse a URI-style device spec into scheme, target and options.

    ``sim://pcie_slot_12v?seed=3&dut=load:8@12`` addresses a simulated
    bench, ``remote://host:port?device=gpu`` a psserve subscription,
    ``replay://run.dump?speed=4`` a recorded dump, ``store://DIR`` a
    telemetry store.  The target may itself contain colons
    (``remote://unix:/tmp/ps.sock``); everything after the first ``?`` is
    a query string with typed coercion for well-known keys (seeds and
    windows to int, speed to float, flags to bool).  A malformed spec
    raises :class:`~repro.common.errors.ConfigurationError`.
    """
    scheme, sep, rest = spec.partition("://")
    if not sep:
        raise ConfigurationError(f"not a URI device spec (no '://'): {spec!r}")
    if not scheme:
        raise ConfigurationError(f"device spec {spec!r} has an empty scheme")
    target, _, query = rest.partition("?")
    options: dict[str, object] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        options[key] = _coerce_option(key, value)
    return SourceSpec(scheme=scheme, target=target, options=options)


def create_source(spec: str, **overrides) -> SampleSource:
    """The sample source of the bench a device spec describes.

    ``create_source("remote://host:port?window=8")`` is
    ``build_bench(spec, **overrides).source`` (see
    :func:`repro.core.fleet.build_bench`): keyword arguments override the
    spec's options, and ``registry=``/``tracer=`` pass through, so
    programmatic callers can fix e.g. the registry while users vary the
    spec string.  The source is already streaming.
    """
    from repro.core.fleet import build_bench

    return build_bench(spec, **overrides).source
