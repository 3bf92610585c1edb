"""Firmware main loop of the simulated PowerSensor3 device.

The real firmware runs the ADC continuously with DMA into RAM, averages six
scans per output sample on the CPU, and ships 2-byte packets per enabled
sensor — preceded by a device timestamp packet — over USB at 20 kHz
(paper, Section III-B).  This class reproduces that behaviour against the
simulated :class:`~repro.hardware.baseboard.Baseboard`, in a pull-based
fashion: the transport asks the device to *produce* the bytes covering the
next span of simulated time.
"""

from __future__ import annotations

import numpy as np

from repro.common.clock import VirtualClock
from repro.common.errors import DeviceError, ProtocolError
from repro.common.units import USB_FULL_SPEED_BPS
from repro.firmware.commands import Command
from repro.firmware.protocol import TIMESTAMP_SENSOR, TIMESTAMP_WRAP_US
from repro.firmware.version import FIRMWARE_VERSION
from repro.hardware.baseboard import Baseboard
from repro.hardware.eeprom import RECORD_SIZE, SENSORS, SensorConfig, VirtualEeprom


def default_eeprom(baseboard: Baseboard) -> VirtualEeprom:
    """Factory-default EEPROM contents for the modules on a baseboard.

    Uses nominal datasheet values (midpoint reference, datasheet
    sensitivity/gain); the calibration procedure replaces these with
    measured values.
    """
    eeprom = VirtualEeprom()
    for channel in baseboard.populated_slots():
        spec = channel.module.spec
        eeprom.set(
            2 * channel.slot,
            SensorConfig(
                name=f"slot{channel.slot}-I",
                pair_name=spec.key,
                vref=channel.module.current_sensor.zero_current_voltage,
                slope=spec.sensitivity_v_per_a,
                enabled=True,
            ),
        )
        eeprom.set(
            2 * channel.slot + 1,
            SensorConfig(
                name=f"slot{channel.slot}-U",
                pair_name=spec.key,
                vref=0.0,
                slope=spec.voltage_gain,
                enabled=True,
            ),
        )
    return eeprom


class Firmware:
    """The device side of the PowerSensor3 link."""

    def __init__(
        self,
        baseboard: Baseboard,
        eeprom: VirtualEeprom | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        self.baseboard = baseboard
        self.eeprom = eeprom if eeprom is not None else default_eeprom(baseboard)
        self.clock = clock or VirtualClock()
        self.clock.configure_ticks(baseboard.timing.output_interval_s)
        self.streaming = False
        self.dfu_mode = False
        self.boot_count = 0
        self.samples_produced = 0
        self.markers_dropped = 0
        self._markers_pending = 0
        self._rx = bytearray()  # partially received command payloads
        self._tx = bytearray()  # response bytes awaiting the transport

    @property
    def eeprom(self) -> VirtualEeprom:
        return self._eeprom

    @eeprom.setter
    def eeprom(self, value: VirtualEeprom) -> None:
        self._eeprom = value
        self._sensor_cache: tuple[int, list[int], np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Host -> device                                                     #
    # ------------------------------------------------------------------ #

    def handle_input(self, data: bytes) -> None:
        """Process host command bytes (possibly split across calls)."""
        self._rx.extend(data)
        while self._rx:
            command = Command.lookup(bytes(self._rx[:1]))
            if command is None:
                raise ProtocolError(f"unknown command byte {self._rx[0]:#04x}")
            if command is Command.WRITE_CONFIG:
                needed = 1 + RECORD_SIZE * SENSORS
                if len(self._rx) < needed:
                    return  # wait for the rest of the image
                image = bytes(self._rx[1:needed])
                del self._rx[:needed]
                self._write_config(image)
                continue
            del self._rx[:1]
            self._dispatch(command)

    def _dispatch(self, command: Command) -> None:
        if command is Command.START_STREAMING:
            self._check_bandwidth()
            self.streaming = True
        elif command is Command.STOP_STREAMING:
            self.streaming = False
        elif command is Command.READ_CONFIG:
            if self.streaming:
                raise DeviceError("cannot read configuration while streaming")
            self._tx.extend(self.eeprom.pack())
        elif command is Command.MARKER:
            self._markers_pending += 1
        elif command is Command.VERSION:
            if self.streaming:
                raise DeviceError("cannot read version while streaming")
            self._tx.extend(FIRMWARE_VERSION.encode("ascii") + b"\x00")
        elif command is Command.REBOOT:
            self._reboot(dfu=False)
        elif command is Command.REBOOT_DFU:
            self._reboot(dfu=True)
        else:  # pragma: no cover - the enum is closed
            raise ProtocolError(f"unhandled command {command}")

    def _write_config(self, image: bytes) -> None:
        if self.streaming:
            raise DeviceError("cannot write configuration while streaming")
        self.eeprom = VirtualEeprom.unpack(image)

    def _reboot(self, dfu: bool) -> None:
        self.streaming = False
        self.dfu_mode = dfu
        self.boot_count += 1
        self.markers_dropped = 0
        self._markers_pending = 0
        self._sensor_cache = None
        self._rx.clear()
        self._tx.clear()

    # ------------------------------------------------------------------ #
    # Device -> host                                                     #
    # ------------------------------------------------------------------ #

    def enabled_sensors(self) -> list[int]:
        # The returned list is shared — treat it as read-only.
        return self._packet_layout()[0]

    def _packet_layout(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The enabled sensors, their code columns and the packet headers.

        A sample set is a timestamp packet and one packet per enabled
        sensor, in index order; ``headers`` holds each packet's fixed
        first-byte bits.  Cached: recomputing from the EEPROM on every
        produce() call costs more than producing a small sample batch.
        The cache is keyed on the EEPROM write generation and dropped
        whenever the EEPROM object itself is replaced (WRITE_CONFIG) or
        the device reboots.
        """
        eeprom = self._eeprom
        cache = self._sensor_cache
        if cache is None or cache[0] != eeprom.generation:
            sensors = [i for i in range(SENSORS) if eeprom.configs[i].enabled]
            headers = np.array(
                [0x80 | (TIMESTAMP_SENSOR << 4) | 0x08]
                + [0x80 | (sensor << 4) for sensor in sensors],
                dtype=np.uint16,
            )
            self._sensor_cache = cache = (
                eeprom.generation,
                sensors,
                np.array(sensors, dtype=np.intp),
                headers,
            )
        return cache[1:]

    def bytes_per_sample(self) -> int:
        return 2 + 2 * len(self.enabled_sensors())  # timestamp + sensor packets

    def data_rate_bps(self) -> float:
        return self.bytes_per_sample() * 8 / self.baseboard.timing.output_interval_s

    def _check_bandwidth(self) -> None:
        rate = self.data_rate_bps()
        if rate > USB_FULL_SPEED_BPS:
            raise DeviceError(
                f"configured data rate {rate / 1e6:.1f} Mbit/s exceeds the "
                f"USB full-speed link ({USB_FULL_SPEED_BPS / 1e6:.0f} Mbit/s)"
            )

    def produce(self, n_samples: int) -> bytes:
        """Advance simulated time by ``n_samples`` output intervals.

        Returns the wire bytes the device would have sent; empty if the
        device is not streaming (time still advances, as it would for an
        idle device).
        """
        if n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        if n_samples == 0:
            return self.flush_responses()
        timing = self.baseboard.timing
        if not self.streaming:
            self.clock.tick(n_samples)
            return self.flush_responses()

        # Times come from the clock's origin plus the sample index, so the
        # bytes do not depend on how the stream is split into produce calls.
        origin, first = self.clock.origin, self.clock.ticks
        codes = self.baseboard.averaged_codes(origin, n_samples, first)
        sensors, columns, headers = self._packet_layout()

        # Timestamp packets: generated after processing 3 of the 6 scans.
        ts_times = np.arange(first, first + n_samples) * timing.output_interval_s
        ts_times += origin
        ts_times += 3 * timing.scan_time_s
        ts_times *= 1e6
        micros = np.rint(ts_times, out=ts_times).astype(np.int64)
        micros %= TIMESTAMP_WRAP_US

        # Every packet at once, as the little-endian word of its two bytes:
        # byte 0 (header | value >> 7) low, byte 1 (value & 0x7F) high.
        values = np.empty((n_samples, len(headers)), dtype=np.uint16)
        values[:, 0] = micros
        values[:, 1:] = codes[:, columns]
        words = values >> 7
        values &= 0x7F
        values <<= 8
        words |= values
        words |= headers

        n_mark = min(self._markers_pending, n_samples)
        if n_mark:
            if 0 in sensors:
                words[:n_mark, 1] |= 0x08  # sensor 0's marker bit
            else:
                # The marker bit only exists in sensor 0's packets; with
                # sensor 0 disabled the marker cannot be attached to the
                # stream.  Drop it (and count the drop) instead of letting
                # it linger and fire spuriously after a later re-enable.
                self.markers_dropped += n_mark
            self._markers_pending -= n_mark

        self.clock.tick(n_samples)
        self.samples_produced += n_samples
        data = words.astype("<u2", copy=False).tobytes()
        if self._tx:
            data = self.flush_responses() + data
        return data

    def flush_responses(self) -> bytes:
        """Drain queued command responses (config image, version string)."""
        out = bytes(self._tx)
        self._tx.clear()
        return out

    def display_refresh(self) -> None:
        """Render the current readings on the baseboard display.

        The real firmware only drives the display when the host is not
        streaming; calling this while streaming is a no-op.
        """
        if self.streaming:
            return
        codes = self.baseboard.averaged_codes(self.clock.origin, 1, self.clock.ticks)[0]
        self.clock.tick(1)
        pairs = []
        total = 0.0
        lsb = self.baseboard.adc.lsb
        for channel in self.baseboard.populated_slots():
            slot = channel.slot
            cfg_i = self.eeprom.get(2 * slot)
            cfg_u = self.eeprom.get(2 * slot + 1)
            if not (cfg_i.enabled and cfg_u.enabled):
                continue
            amps = cfg_i.convert((codes[2 * slot] + 0.5) * lsb)
            volts = cfg_u.convert((codes[2 * slot + 1] + 0.5) * lsb)
            pairs.append((cfg_i.pair_name, volts, amps))
            total += volts * amps
        self.baseboard.display.render_power_screen(total, pairs)
