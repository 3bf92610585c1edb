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
a stall — tape benches (:class:`TapeSetup`) therefore disable retry
recovery.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.common.errors import ConfigurationError, MeasurementError, ServerError
from repro.core.dump import DumpReader
from repro.core.health import StreamHealth
from repro.core.powersensor import PowerSensor
from repro.core.sources import SampleBlock, SampleSource
from repro.firmware.version import FIRMWARE_VERSION
from repro.hardware.eeprom import SENSORS, SensorConfig
from repro.observability import MetricsRegistry, Tracer


class TapeSampleSource(SampleSource):
    """Re-stream a finite recorded tape through the SampleSource contract.

    A tape is a recorded stream in physical units, replayed by
    ``replay://`` (a text dump) or ``store://`` (a telemetry store).  The
    subclasses load their recording and hand the raw arrays to this
    constructor; everything observable — the synthesized configs, rate
    inference, timeline compression for ``speed``, monotonic loop
    continuation, marker mapping, health accounting — is shared, so two
    recordings of the same capture replay bit-identically regardless of
    the format they travelled through.

    ``enabled`` is the recording's per-sensor mask; every fully-enabled
    pair takes the next of ``pair_names``.  A ``sample_rate`` of 0 (not
    recorded) is inferred from the median sample interval.  ``label``
    names the recording in error messages (e.g. ``"dump 'run.txt'"``).
    """

    def __init__(
        self,
        *,
        times: np.ndarray,
        values: np.ndarray,
        markers: np.ndarray,
        enabled: np.ndarray,
        pair_names: list[str],
        sample_rate: float,
        speed: float = 1.0,
        loop: bool = False,
        device: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        label: str = "tape",
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

        n = times.size
        if n == 0:
            raise MeasurementError(f"{label} holds no samples")
        if sample_rate > 0:
            self._native_rate = float(sample_rate)
        elif n >= 2:
            self._native_rate = 1.0 / float(np.median(np.diff(times)))
        else:
            raise MeasurementError(
                f"{label} records no sample rate and holds too few samples "
                "to infer one"
            )
        self.configs = self._synthesize_configs(enabled, pair_names)
        self._values = values
        self._enabled = np.array([c.enabled for c in self.configs])

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

    @staticmethod
    def _synthesize_configs(
        enabled: np.ndarray, pair_names: list[str]
    ) -> list[SensorConfig]:
        """Identity-conversion configs carrying the recorded names and mask.

        A tape stores physical units, so conversion values are identity;
        the configs exist to carry names and the enabled mask through the
        normal config surface.
        """
        configs = [SensorConfig() for _ in range(SENSORS)]
        names = iter(pair_names)
        for pair in range(SENSORS // 2):
            current, voltage = 2 * pair, 2 * pair + 1
            if enabled[current] and enabled[voltage]:
                name = next(names, f"pair{pair}")
                configs[current] = SensorConfig(
                    name=f"{name}.I", pair_name=name, vref=0.0, slope=1.0, enabled=True
                )
                configs[voltage] = SensorConfig(
                    name=f"{name}.V", pair_name=name, vref=0.0, slope=1.0, enabled=True
                )
            else:
                configs[current] = SensorConfig(enabled=bool(enabled[current]))
                configs[voltage] = SensorConfig(enabled=bool(enabled[voltage]))
        return configs

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
            f"{self._label} is read-only: configs are part of the recording"
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
        # The recorded pairs map to sensors 0..2*n_pairs-1 (even: current,
        # odd: voltage) — the same layout PowerSensor dumped them from.
        n_pairs = len(self.data.pair_names)
        values = np.zeros((self.data.times.size, SENSORS))
        values[:, 0 : 2 * n_pairs : 2] = self.data.amps
        values[:, 1 : 2 * n_pairs : 2] = self.data.volts
        super().__init__(
            times=self.data.times,
            values=values,
            markers=map_markers(self.data.times, self.data.markers),
            enabled=np.arange(SENSORS) < 2 * n_pairs,
            pair_names=self.data.pair_names,
            sample_rate=self.data.sample_rate_hz,
            speed=speed,
            loop=loop,
            device=device,
            registry=registry,
            tracer=tracer,
            label=f"dump {self.path!r}",
        )


class TapeSetup:
    """A tape bench (``replay://`` or ``store://``): the source and its PowerSensor.

    Built by :func:`repro.core.fleet.build_bench`, with the attribute
    surface the CLI tools use.  Retry recovery is disabled: a finite tape
    running dry is the normal end of a replay run, not a device stall.
    """

    def __init__(self, source: TapeSampleSource) -> None:
        self.source = source
        self.registry = source.registry
        self.tracer = source.tracer
        self.device = source.device
        self.ps = PowerSensor(source, recovery=None)

    @property
    def sample_rate(self) -> float:
        return self.source.sample_rate

    def close(self) -> None:
        self.ps.close()

    def __enter__(self) -> "TapeSetup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
