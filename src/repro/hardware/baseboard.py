"""The PowerSensor3 baseboard: four module slots feeding the MCU's ADC.

Each populated slot contributes a current/voltage sensor pair wired to two
consecutive ADC channels (current on ``2*slot``, voltage on ``2*slot + 1``),
minimising the time skew between the two readings of a pair (paper,
Section III-B).  A slot is *connected* to a power rail of the device under
test; unconnected slots read their sensors' zero-input values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.common.errors import ConfigurationError
from repro.hardware.adc import Adc, AdcTiming
from repro.hardware.display import Display
from repro.hardware.modules import SensorModule

SLOTS = 4
CHANNELS = 2 * SLOTS


class PowerRail(Protocol):
    """Ground-truth electrical state of one supply rail of a DUT.

    Implementations must be pure functions of time so the two channels of a
    pair (sampled ~1 us apart) can query overlapping windows.
    """

    def sample_uniform(
        self, start: float, dt: float, n: int, first: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """(volts, amps) arrays of length n at times start + k*dt, k >= first."""
        ...


@dataclass
class SensorChannel:
    """One populated slot and the rail it measures."""

    slot: int
    module: SensorModule
    rail: PowerRail | None = None


class Baseboard:
    """Holds up to four sensor modules and produces raw ADC codes.

    The :meth:`read_codes` method is what the simulated firmware calls: it
    returns the per-subsample quantised codes with exact scan timing, so the
    firmware's 6-sample averaging operates on correlated analog noise just
    like the real device.
    """

    def __init__(self, timing: AdcTiming | None = None) -> None:
        self.timing = timing or AdcTiming()
        if self.timing.resolution_bits > 15:
            # read_codes holds the codes in int16.
            raise ConfigurationError("ADC resolution above 15 bits is not supported")
        self.adc = Adc(bits=self.timing.resolution_bits)
        self.slots: list[SensorChannel | None] = [None] * SLOTS
        self.display = Display()
        self.display.precompute_fonts()

    def attach(self, slot: int, module: SensorModule) -> SensorChannel:
        """Populate a slot with a sensor module."""
        self._check_slot(slot)
        if self.slots[slot] is not None:
            raise ConfigurationError(f"slot {slot} is already populated")
        channel = SensorChannel(slot=slot, module=module)
        self.slots[slot] = channel
        return channel

    def connect(self, slot: int, rail: PowerRail) -> None:
        """Wire a populated slot to a DUT power rail."""
        channel = self._channel(slot)
        channel.rail = rail

    def detach(self, slot: int) -> None:
        self._check_slot(slot)
        self.slots[slot] = None

    def populated_slots(self) -> list[SensorChannel]:
        return [c for c in self.slots if c is not None]

    def _channel(self, slot: int) -> SensorChannel:
        self._check_slot(slot)
        channel = self.slots[slot]
        if channel is None:
            raise ConfigurationError(f"slot {slot} is not populated")
        return channel

    @staticmethod
    def _check_slot(slot: int) -> None:
        if not 0 <= slot < SLOTS:
            raise ConfigurationError(f"slot {slot} out of range 0..{SLOTS - 1}")

    def read_codes(self, start: float, n_output: int, first: int = 0) -> np.ndarray:
        """Raw ADC codes for ``n_output`` output samples from index ``first``.

        Scan ``a`` of output sample ``j`` is at ``start + (j * averages + a) *
        scan_time`` plus the channel's conversion offset, so any split of a
        stream into reads gives the same codes.  Returns an int16 array of
        shape ``(n_output, averages, channels)``.  Channel ``2*slot`` carries
        the slot's current sensor, ``2*slot + 1`` its voltage sensor;
        unpopulated channels read code 0.
        """
        codes = np.zeros((n_output, self.timing.averages, CHANNELS), dtype=np.int16)
        for channel in self.populated_slots():
            slot = channel.slot
            self._read_slot(channel, start, first, codes[:, :, 2 * slot : 2 * slot + 2])
        return codes

    def averaged_codes(self, start: float, n_output: int, first: int = 0) -> np.ndarray:
        """Firmware-style averaged 10-bit values, shape (n_output, channels)."""
        return self._average(self.read_codes(start, n_output, first))

    def slot_averaged_codes(self, slot: int, start: float, n_output: int) -> np.ndarray:
        """One slot's averaged codes, shape ``(n_output, 2)``: current, voltage.

        Only this slot's sensors are simulated, so measuring one module
        (calibration, verification) leaves every other module's noise
        stream untouched.  The scan grid is :meth:`read_codes`'s from
        index 0.
        """
        raw = np.empty((n_output, self.timing.averages, 2), dtype=np.int16)
        self._read_slot(self._channel(slot), start, 0, raw)
        return self._average(raw)

    def _read_slot(
        self, channel: SensorChannel, start: float, first: int, out: np.ndarray
    ) -> None:
        """Fill ``out`` ``(n_output, averages, 2)`` with a slot's current and voltage codes."""
        t = self.timing
        scan_time = t.scan_time_s
        total_sub = out.shape[0] * t.averages
        scan = first * t.averages
        slot = channel.slot
        i_start = start + (2 * slot) * t.conversion_time_s
        u_start = start + (2 * slot + 1) * t.conversion_time_s
        if channel.rail is not None:
            _, amps = channel.rail.sample_uniform(i_start, scan_time, total_sub, scan)
            volts, _ = channel.rail.sample_uniform(u_start, scan_time, total_sub, scan)
        else:
            amps = volts = np.zeros(total_sub)
        i_analog = channel.module.current_sensor.transduce_uniform(
            amps, i_start, scan_time, scan
        )
        out[:, :, 0] = self.adc.quantize(i_analog).reshape(out.shape[:2])
        u_analog = channel.module.voltage_sensor.transduce_uniform(
            volts, u_start, scan_time, scan
        )
        out[:, :, 1] = self.adc.quantize(u_analog).reshape(out.shape[:2])

    def _average(self, raw: np.ndarray) -> np.ndarray:
        """Average the scans of ``raw`` (axis 1) the way the firmware rounds.

        The scans are added one slice at a time, which runs over
        contiguous rows instead of reducing the short strided axis.
        """
        averages = self.timing.averages
        summed = raw[:, 0].astype(np.int64)
        for scan in range(1, averages):
            summed += raw[:, scan]
        return (summed + averages // 2) // averages
