"""Virtual EEPROM: per-sensor conversion values stored on the device.

The STM32 firmware emulates an EEPROM in flash and stores, for each of the
eight logical sensors (4 module slots x {current, voltage}):

* the sensor name,
* the pair name (shared by the two sensors of a module),
* the reference voltage (midpoint for current sensors, 0 for voltage),
* the sensitivity (V/A) or gain (V/V),
* whether the sensor is enabled.

The host reads these at connect time so users never have to track which
physical modules are plugged where (paper, Section III-B1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError

NAME_LEN = 16
SENSORS = 8  # 4 module slots x (current, voltage)

_STRUCT = struct.Struct("<16s16sff?3x")  # name, pair, vref, slope, enabled + pad


def _encode_name(name: str) -> bytes:
    raw = name.encode("ascii", errors="replace")[: NAME_LEN - 1]
    return raw.ljust(NAME_LEN, b"\x00")


def _decode_name(raw: bytes) -> str:
    return raw.split(b"\x00", 1)[0].decode("ascii", errors="replace")


@dataclass(frozen=True)
class SensorConfig:
    """Conversion values for one logical sensor."""

    name: str = ""
    pair_name: str = ""
    vref: float = 0.0
    slope: float = 1.0  # sensitivity (V/A) for current, gain (V/V) for voltage
    enabled: bool = False

    def pack(self) -> bytes:
        return _STRUCT.pack(
            _encode_name(self.name),
            _encode_name(self.pair_name),
            float(self.vref),
            float(self.slope),
            bool(self.enabled),
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "SensorConfig":
        if len(raw) != _STRUCT.size:
            raise ConfigurationError(
                f"sensor config record must be {_STRUCT.size} bytes, got {len(raw)}"
            )
        name, pair, vref, slope, enabled = _STRUCT.unpack(raw)
        return cls(
            name=_decode_name(name),
            pair_name=_decode_name(pair),
            vref=vref,
            slope=slope,
            enabled=enabled,
        )

    def convert(self, adc_volts: float) -> float:
        """Convert an ADC-pin voltage to a physical value using these values.

        For a current sensor this yields amperes: ``(v - vref) / slope``;
        for a voltage sensor, with vref 0 and slope the divider gain, it
        yields the input voltage.
        """
        if self.slope == 0:
            raise ConfigurationError(f"sensor {self.name!r} has zero slope")
        return (adc_volts - self.vref) / self.slope


RECORD_SIZE = _STRUCT.size


@dataclass
class VirtualEeprom:
    """Eight sensor-config records with byte (de)serialisation.

    ``generation`` counts record writes so consumers that cache derived
    values (e.g. the firmware's enabled-sensor list) can detect in-place
    reconfiguration cheaply.
    """

    configs: list[SensorConfig] = field(
        default_factory=lambda: [SensorConfig() for _ in range(SENSORS)]
    )
    generation: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.configs) != SENSORS:
            raise ConfigurationError(f"EEPROM holds exactly {SENSORS} sensor records")

    def get(self, sensor: int) -> SensorConfig:
        self._check_index(sensor)
        return self.configs[sensor]

    def set(self, sensor: int, config: SensorConfig) -> None:
        self._check_index(sensor)
        self.configs[sensor] = config
        self.generation += 1

    def update(self, sensor: int, **changes) -> SensorConfig:
        """Replace selected fields of one record; returns the new record."""
        new = replace(self.get(sensor), **changes)
        self.set(sensor, new)
        return new

    def pack(self) -> bytes:
        return b"".join(c.pack() for c in self.configs)

    @classmethod
    def unpack(cls, raw: bytes) -> "VirtualEeprom":
        expected = RECORD_SIZE * SENSORS
        if len(raw) != expected:
            raise ConfigurationError(
                f"EEPROM image must be {expected} bytes, got {len(raw)}"
            )
        configs = [
            SensorConfig.unpack(raw[i * RECORD_SIZE : (i + 1) * RECORD_SIZE])
            for i in range(SENSORS)
        ]
        return cls(configs=configs)

    @staticmethod
    def _check_index(sensor: int) -> None:
        if not 0 <= sensor < SENSORS:
            raise ConfigurationError(f"sensor index {sensor} out of range 0..{SENSORS - 1}")
