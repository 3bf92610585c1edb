"""The PowerSensor host class: connect, stream, snapshot, dump, mark.

Mirrors the real toolkit's ``PowerSensor`` C++ class (paper, Section
III-C): on construction it connects to the device and reads the sensor
configuration; it then tracks cumulative energy per sensor pair from the
20 kHz stream.  Interval mode is :meth:`read` + the state arithmetic in
:mod:`repro.core.state`; continuous mode is :meth:`dump`.

Where the real library runs a lightweight receive thread against wall
time, the simulation is pull-based: :meth:`pump` advances simulated time.
An optional realtime driver (:mod:`repro.core.realtime`) provides the
threaded behaviour for the interactive CLI tools.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    MeasurementError,
    StreamStalledError,
)
from repro.common.retry import DEFAULT_RECOVERY, RecoveryPolicy
from repro.core.dump import DumpWriter
from repro.core.health import StreamHealth
from repro.core.sources import ProtocolSampleSource, SampleBlock, SampleSource
from repro.core.state import PAIRS, State
from repro.hardware.eeprom import SENSORS, SensorConfig
from repro.observability import MetricsRegistry, Tracer
from repro.transport.faults import FaultySerialLink
from repro.transport.link import VirtualSerialLink

#: Buckets for the per-recovery retry-count histogram (retries are small
#: integers, so unit-width bounds keep the quantiles exact).
RETRY_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


# Re-exported for compatibility: RecoveryPolicy now lives in
# repro.common.retry so transport/ and server/ can use it without core.
__all__ = ["DEFAULT_RECOVERY", "PowerSensor", "RecoveryPolicy", "RETRY_BUCKETS"]


def recorded_pairs(configs: list[SensorConfig]) -> dict[int, str]:
    """The pairs a dump or store records, ``{pair: name}`` in pair order.

    A pair is recorded when both its sensors are enabled, under its
    ``pair_name`` or else ``pairP``.
    """
    return {
        p: configs[2 * p].pair_name or f"pair{p}"
        for p in range(len(configs) // 2)
        if configs[2 * p].enabled and configs[2 * p + 1].enabled
    }


class PowerSensor:
    """Host-side handle to a (simulated) PowerSensor3 device."""

    def __init__(
        self,
        device: VirtualSerialLink | FaultySerialLink | SampleSource,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
    ) -> None:
        if isinstance(device, (VirtualSerialLink, FaultySerialLink)):
            self.source: SampleSource = ProtocolSampleSource(device)
        else:
            self.source = device
        self.device: str | None = getattr(self.source, "device", None)
        self.recovery = recovery
        self.health: StreamHealth = getattr(self.source, "health", None) or StreamHealth()
        self.registry: MetricsRegistry = (
            getattr(self.source, "registry", None) or self.health.registry
        )
        self.tracer: Tracer = getattr(self.source, "tracer", None) or Tracer(
            self.registry
        )
        device = getattr(self.source, "device", None)
        labels = {"device": device} if device else {}
        self._retry_histogram = self.registry.histogram(
            "recovery_retries_per_event",
            buckets=RETRY_BUCKETS,
            help="retry reads issued per empty-read recovery event",
            **labels,
        )
        self._backoff_histogram = self.registry.histogram(
            "recovery_backoff_span_seconds",
            buckets=(1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 0.05, 0.1, 0.5),
            help="stream-time span of the final (widest) retry read",
            **labels,
        )
        self._pump_residual = 0.0  # fractional samples carried across pump_seconds
        self._energy = np.zeros(PAIRS)
        self._last_current = np.zeros(PAIRS)
        self._last_voltage = np.zeros(PAIRS)
        self._time = 0.0
        self._prev_time: float | None = None
        self._marker_count = 0
        self._marker_chars: deque[str] = deque()
        self.marker_log: list[tuple[float, str]] = []
        self._dump: DumpWriter | None = None
        self._store = None  # TelemetryStore while record() is active
        self._owns_store = False
        self.samples_seen = 0
        self.source.start()

    # ------------------------------------------------------------------ #
    # Streaming                                                          #
    # ------------------------------------------------------------------ #

    @property
    def sample_rate(self) -> float:
        return self.source.sample_rate

    @property
    def sample_interval(self) -> float:
        return 1.0 / self.source.sample_rate

    def pump(self, n_samples: int) -> SampleBlock:
        """Advance the stream by ``n_samples`` and fold them into the state.

        An empty read while the device is streaming engages the recovery
        policy: bounded re-reads with widening spans, then
        :class:`StreamStalledError` if the stream stays silent.
        """
        block = self.source.read_block(n_samples)
        if (
            len(block) == 0
            and n_samples > 0
            and getattr(self.source, "streaming", False)
        ):
            self.health.empty_reads += 1
            if self.recovery is not None:
                block = self._retry_read(n_samples)
        self._process(block)
        return block

    def _retry_read(self, n_samples: int) -> SampleBlock:
        policy = self.recovery
        cap = max(int(policy.max_retry_seconds * self.sample_rate), 1)
        span = n_samples
        attempts = 0
        try:
            for _ in range(policy.max_retries):
                span = min(max(int(span * policy.backoff_factor), 1), cap)
                attempts += 1
                self.health.retries += 1
                block = self.source.read_block(span)
                if len(block):
                    return block
            self.health.stalls += 1
            raise StreamStalledError(
                f"stream produced no samples after {policy.max_retries} retries "
                f"(device stalled or all data lost)"
            )
        finally:
            self._retry_histogram.observe(attempts)
            self._backoff_histogram.observe(span / self.sample_rate)

    def pump_seconds(self, seconds: float) -> SampleBlock:
        """Advance the stream by a duration of simulated time.

        The fractional-sample remainder is carried across calls, so
        repeated short pumps cover exactly the requested total duration
        instead of accumulating per-call rounding drift.
        """
        if seconds < 0:
            raise MeasurementError(f"cannot pump a negative duration ({seconds} s)")
        exact = seconds * self.sample_rate + self._pump_residual
        n = max(int(round(exact)), 0)
        self._pump_residual = exact - n
        return self.pump(n)

    def _process(self, block: SampleBlock) -> None:
        n = len(block)
        if n == 0:
            return
        times = block.times
        currents = block.values[:, 0::2]
        volts = block.values[:, 1::2]
        power = currents * volts  # (n, PAIRS)
        interval = self.sample_interval
        if self._prev_time is None:
            first_dt = interval
        else:
            first_dt = times[0] - self._prev_time
        dts = np.empty(n)
        dts[0] = max(first_dt, 0.0)
        np.subtract(times[1:], times[:-1], out=dts[1:])
        # Samples lost to faults show up as oversized inter-sample gaps;
        # integration bridges them, but the bridging is accounted for.
        gaps = int(np.count_nonzero(dts > 1.5 * interval))
        if gaps:
            self.health.gaps_bridged += gaps
        self._energy += power.T @ dts
        last = block.values[-1].copy()
        self._last_current = last[0::2]
        self._last_voltage = last[1::2]
        self._prev_time = self._time = float(times[-1])
        self.samples_seen += n

        if np.count_nonzero(block.markers):
            for idx in np.flatnonzero(block.markers):
                char = self._marker_chars.popleft() if self._marker_chars else "M"
                self._marker_count += 1
                self.marker_log.append((float(times[idx]), char))
                if self._dump is not None:
                    self._dump.write_marker(float(times[idx]), char)

        if self._dump is not None:
            pairs = list(recorded_pairs(self.source.configs))
            self._dump.write_samples(block.times, volts[:, pairs], currents[:, pairs])
        if self._store is not None:
            self._store.append(block)

    # ------------------------------------------------------------------ #
    # Interval mode                                                      #
    # ------------------------------------------------------------------ #

    def read(self) -> State:
        """Snapshot the accumulated measurement (interval mode)."""
        return State(
            time=self._time,
            consumed_energy=tuple(self._energy),
            current=tuple(self._last_current),
            voltage=tuple(self._last_voltage),
            marker_count=self._marker_count,
        )

    def total_energy(self, pair: int = -1) -> float:
        """Cumulative joules since connect (one pair, or all for -1)."""
        if pair == -1:
            return float(self._energy.sum())
        if not 0 <= pair < PAIRS:
            raise MeasurementError(f"pair {pair} out of range")
        return float(self._energy[pair])

    # ------------------------------------------------------------------ #
    # Continuous mode                                                    #
    # ------------------------------------------------------------------ #

    def dump(self, path: str | Path | None) -> None:
        """Start recording all samples to ``path``; ``None`` stops."""
        if self._dump is not None:
            self._dump.close()
            self._dump = None
        if path is None:
            return
        pair_names = list(recorded_pairs(self.source.configs).values())
        self._dump = DumpWriter(path, pair_names, self.sample_rate)

    def record(self, store) -> None:
        """Start recording all samples to a telemetry store; ``None`` stops.

        ``store`` may be a directory path (a
        :class:`~repro.store.store.TelemetryStore` is created there and
        owned — sealed and closed — by this sensor) or an already-open
        store the caller owns.  The binary twin of :meth:`dump`: every
        pumped block is appended, markers and all, and can be queried or
        re-streamed through ``store://`` afterwards.
        """
        if self._store is not None:
            if self._owns_store:
                self._store.close()
            else:
                self._store.seal()
            self._store = None
            self._owns_store = False
        if store is None:
            return
        if isinstance(store, (str, Path)):
            from repro.store import TelemetryStore

            store = TelemetryStore(
                store,
                device=getattr(self.source, "device", None),
                sample_rate=float(self.sample_rate),
                pair_names=list(recorded_pairs(self.source.configs).values()),
            )
            self._owns_store = True
        self._store = store

    def mark(self, char: str = "M") -> None:
        """Place a marker, time-synced with the device, in the stream."""
        if len(char) != 1:
            raise MeasurementError("marker must be a single character")
        self._marker_chars.append(char)
        self.source.mark()

    # ------------------------------------------------------------------ #
    # Configuration                                                      #
    # ------------------------------------------------------------------ #

    def get_config(self, sensor: int) -> SensorConfig:
        if not 0 <= sensor < SENSORS:
            raise ConfigurationError(f"sensor {sensor} out of range")
        return self.source.configs[sensor]

    def set_config(self, sensor: int, **changes) -> SensorConfig:
        """Update one sensor's stored conversion values on the device.

        Streaming is paused for the EEPROM write and resumed, as the real
        library does.
        """
        if not 0 <= sensor < SENSORS:
            raise ConfigurationError(f"sensor {sensor} out of range")
        from dataclasses import replace

        configs = list(self.source.configs)
        configs[sensor] = replace(configs[sensor], **changes)
        self.source.stop()
        self.source.write_configs(configs)
        self.source.start()
        return configs[sensor]

    def close(self) -> None:
        self.dump(None)
        self.record(None)
        self.source.close()

    def __enter__(self) -> "PowerSensor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
