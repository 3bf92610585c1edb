"""Replay a recorded dump file through the standard SampleSource surface.

A dump written in continuous mode (:class:`~repro.core.dump.DumpWriter`)
becomes a first-class device: :class:`ReplaySampleSource` re-streams its
samples — times, values, markers — through exactly the
:class:`~repro.core.sources.SampleSource` contract, so a recorded run
plugs into :class:`~repro.core.powersensor.PowerSensor`, the fleet
layer, psserve and the CLI tools anywhere a live bench would.

The re-streaming machinery itself lives in :class:`TapeSampleSource`,
shared with the telemetry store's ``store://`` source
(:mod:`repro.store.source`): any finite recorded tape — whatever its
on-disk format — replays with identical timeline, marker, loop and
health semantics.

``speed`` plays the tape faster: the source advertises ``speed`` times
the recorded sample rate and compresses the emitted timeline to match,
so the stream stays self-consistent (inter-sample gaps equal the
advertised interval) and a driver pacing against wall time finishes in
``1/speed`` of the recorded duration.  ``loop=True`` wraps around at the
end of the recording with monotonically continued timestamps; otherwise
the source simply runs dry, which a recovery-driven consumer reports as
a stall — replay benches therefore disable retry recovery.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.common.errors import ConfigurationError, MeasurementError, ServerError
from repro.core.dump import DumpData, DumpReader
from repro.core.health import StreamHealth
from repro.core.sources import SampleBlock, SampleSource, register_source
from repro.firmware.version import FIRMWARE_VERSION
from repro.hardware.eeprom import SENSORS, SensorConfig
from repro.observability import MetricsRegistry, Tracer


def _configs_from_dump(data: DumpData) -> list[SensorConfig]:
    """Synthesize sensor configs for the recorded pairs.

    The dump stores physical units, so conversion values are identity;
    the configs exist to carry names and the enabled mask through the
    normal config surface.
    """
    configs = [SensorConfig() for _ in range(SENSORS)]
    for pair, name in enumerate(data.pair_names[: SENSORS // 2]):
        configs[2 * pair] = SensorConfig(
            name=f"{name}.I", pair_name=name, vref=0.0, slope=1.0, enabled=True
        )
        configs[2 * pair + 1] = SensorConfig(
            name=f"{name}.V", pair_name=name, vref=0.0, slope=1.0, enabled=True
        )
    return configs


class TapeSampleSource(SampleSource):
    """Re-stream a finite recorded tape through the SampleSource contract.

    Subclasses load their recording (a text dump, a telemetry store,
    ...) and hand the raw arrays to this constructor; everything
    observable — timeline compression for ``speed``, monotonic loop
    continuation, marker mapping, health accounting — is shared, so two
    recordings of the same capture replay bit-identically regardless of
    the format they travelled through.

    ``label`` names the recording in error messages (e.g. ``"dump
    'run.txt'"``); ``kind`` names the source kind (``"replay"``).
    """

    def __init__(
        self,
        *,
        times: np.ndarray,
        values: np.ndarray,
        markers: np.ndarray,
        configs: list[SensorConfig],
        native_rate: float,
        speed: float = 1.0,
        loop: bool = False,
        device: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        label: str = "tape",
        kind: str = "tape",
    ) -> None:
        if speed <= 0:
            raise ConfigurationError(f"replay speed must be positive, got {speed}")
        self.speed = float(speed)
        self.loop = bool(loop)
        self.device = device
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        self.health = StreamHealth(self.registry, device=device)
        self.version = f"Replay of {FIRMWARE_VERSION}"
        self.streaming = False
        self._label = label
        self._kind = kind

        n = times.size
        if n == 0:
            raise MeasurementError(f"{label} holds no samples")
        self._native_rate = float(native_rate)
        self.configs = configs
        self._values = values
        self._enabled = np.array([c.enabled for c in configs])

        # Timeline compression for accelerated replay: times are re-based
        # at the recording start and divided by speed, so the emitted
        # stream's inter-sample spacing equals 1/sample_rate.
        t0 = float(times[0])
        self._times = t0 + (times - t0) / self.speed
        self._duration = float(self._times[-1] - self._times[0]) + 1.0 / (
            self._native_rate * self.speed
        )
        self._markers = np.asarray(markers, dtype=bool)

        self._cursor = 0
        self._pass = 0  # completed loop passes
        self._marker_pending = 0

    @property
    def sample_rate(self) -> float:
        return self._native_rate * self.speed

    @property
    def exhausted(self) -> bool:
        """True once a non-looping replay has emitted its last sample."""
        return not self.loop and self._cursor >= self._times.size

    def start(self) -> None:
        self.streaming = True

    def stop(self) -> None:
        self.streaming = False

    def mark(self) -> None:
        self._marker_pending += 1

    def refresh_configs(self) -> None:  # the recording is the config
        pass

    def write_configs(self, configs: list[SensorConfig]) -> None:
        raise ServerError(
            f"{self._kind} source {self._label} is read-only: configs are part of "
            "the recording"
        )

    def _empty_block(self) -> SampleBlock:
        return SampleBlock(
            times=np.zeros(0),
            values=np.zeros((0, SENSORS)),
            markers=np.zeros(0, dtype=bool),
            enabled=self._enabled.copy(),
        )

    def read_block(self, n_samples: int) -> SampleBlock:
        if not self.streaming or n_samples <= 0:
            return self._empty_block()
        n_total = self._times.size
        times: list[np.ndarray] = []
        values: list[np.ndarray] = []
        markers: list[np.ndarray] = []
        remaining = n_samples
        while remaining > 0:
            if self._cursor >= n_total:
                if not self.loop:
                    break
                self._cursor = 0
                self._pass += 1
            take = min(remaining, n_total - self._cursor)
            lo, hi = self._cursor, self._cursor + take
            # Each loop pass continues the timeline where the previous one
            # ended, so the replayed clock never jumps backwards.
            times.append(self._times[lo:hi] + self._pass * self._duration)
            values.append(self._values[lo:hi])
            markers.append(self._markers[lo:hi].copy())
            self._cursor = hi
            remaining -= take
        if not times:
            return self._empty_block()
        block = SampleBlock(
            times=np.concatenate(times) if len(times) > 1 else times[0].copy(),
            values=np.concatenate(values) if len(values) > 1 else values[0].copy(),
            markers=np.concatenate(markers) if len(markers) > 1 else markers[0],
            enabled=self._enabled.copy(),
        )
        if self._marker_pending:
            flag = min(self._marker_pending, len(block))
            block.markers[:flag] = True
            self._marker_pending -= flag
        self.health.samples_decoded += len(block)
        return block


def map_markers(times: np.ndarray, marks: list[tuple[float, str]]) -> np.ndarray:
    """Map recorded ``(time, char)`` markers to the sample at/after each time."""
    n = times.size
    flags = np.zeros(n, dtype=bool)
    for time, _char in marks:
        idx = int(np.searchsorted(times, time))
        flags[min(idx, n - 1)] = True
    return flags


class ReplaySampleSource(TapeSampleSource):
    """Re-stream a recorded dump through the SampleSource contract."""

    def __init__(
        self,
        path: str | Path,
        speed: float = 1.0,
        loop: bool = False,
        device: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.path = str(path)
        self.data = DumpReader.read(path)
        n = self.data.times.size
        if n == 0:
            raise MeasurementError(f"dump {self.path!r} holds no samples")
        n_pairs = len(self.data.pair_names)
        if self.data.sample_rate_hz > 0:
            native_rate = float(self.data.sample_rate_hz)
        elif n >= 2:
            native_rate = 1.0 / float(np.median(np.diff(self.data.times)))
        else:
            raise MeasurementError(
                f"dump {self.path!r} has no sample_rate_hz header and too few "
                "samples to infer a rate"
            )

        # The recorded pairs map to sensors 0..2*n_pairs-1 (even: current,
        # odd: voltage) — the same layout PowerSensor dumped them from.
        values = np.zeros((n, SENSORS))
        values[:, 0 : 2 * n_pairs : 2] = self.data.amps
        values[:, 1 : 2 * n_pairs : 2] = self.data.volts

        super().__init__(
            times=self.data.times,
            values=values,
            markers=map_markers(self.data.times, self.data.markers),
            configs=_configs_from_dump(self.data),
            native_rate=native_rate,
            speed=speed,
            loop=loop,
            device=device,
            registry=registry,
            tracer=tracer,
            label=f"{self.path!r}",
            kind="replay",
        )


class ReplaySetup:
    """A replay bench with the attribute surface the CLI tools use.

    Retry recovery is disabled: a finite tape running dry is the normal
    end of a replay run, not a device stall.
    """

    def __init__(
        self,
        path: str | Path,
        speed: float = 1.0,
        loop: bool = False,
        device: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        from repro.core.powersensor import PowerSensor

        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        self.device = device
        self.source = ReplaySampleSource(
            path,
            speed=speed,
            loop=loop,
            device=device,
            registry=self.registry,
            tracer=self.tracer,
        )
        self.ps = PowerSensor(self.source, recovery=None)

    @property
    def sample_rate(self) -> float:
        return self.source.sample_rate

    def close(self) -> None:
        self.ps.close()

    def __enter__(self) -> "ReplaySetup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


register_source("replay", ReplaySampleSource)
