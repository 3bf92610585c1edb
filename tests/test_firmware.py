"""Firmware main loop: commands, streaming, config, markers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import DeviceError, ProtocolError
from repro.common.rng import RngStream
from repro.core.sources import ProtocolSampleSource
from repro.dut.base import ConstantRail
from repro.firmware.device import Firmware, default_eeprom
from repro.firmware.protocol import (
    TIMESTAMP_SENSOR,
    TIMESTAMP_WRAP_US,
    SensorReading,
    StreamDecoder,
    Timestamp,
)
from repro.firmware.version import FIRMWARE_VERSION
from repro.hardware.adc import AdcTiming
from repro.hardware.baseboard import Baseboard
from repro.hardware.eeprom import RECORD_SIZE, SENSORS, VirtualEeprom
from repro.hardware.modules import SensorModule
from repro.transport.link import VirtualSerialLink


def make_firmware(slots=(0,)) -> Firmware:
    board = Baseboard()
    for slot in slots:
        board.attach(
            slot,
            SensorModule.manufacture("pcie_slot_12v", RngStream(slot), perfect=True),
        )
        board.connect(slot, ConstantRail(12.0, 4.0))
    return Firmware(board)


def test_default_eeprom_enables_populated_pairs():
    firmware = make_firmware((0, 2))
    enabled = firmware.enabled_sensors()
    assert enabled == [0, 1, 4, 5]


def test_version_command():
    firmware = make_firmware()
    firmware.handle_input(b"V")
    assert firmware.flush_responses() == FIRMWARE_VERSION.encode() + b"\x00"


def test_read_config_returns_image():
    firmware = make_firmware()
    firmware.handle_input(b"R")
    image = firmware.flush_responses()
    assert len(image) == RECORD_SIZE * SENSORS
    assert VirtualEeprom.unpack(image).get(0).enabled


def test_write_config_split_across_calls():
    firmware = make_firmware()
    eeprom = VirtualEeprom()
    eeprom.update(5, name="hello", enabled=True)
    payload = b"W" + eeprom.pack()
    firmware.handle_input(payload[:17])
    firmware.handle_input(payload[17:])
    assert firmware.eeprom.get(5).name == "hello"


def test_unknown_command_raises():
    firmware = make_firmware()
    with pytest.raises(ProtocolError):
        firmware.handle_input(b"?")


def test_no_data_before_start():
    firmware = make_firmware()
    assert firmware.produce(10) == b""
    firmware.handle_input(b"S")
    assert len(firmware.produce(10)) > 0


def test_stop_streaming():
    firmware = make_firmware()
    firmware.handle_input(b"S")
    firmware.produce(1)
    firmware.handle_input(b"X")
    assert firmware.produce(5) == b""


def test_time_advances_even_when_idle():
    firmware = make_firmware()
    before = firmware.clock.now
    firmware.produce(100)
    assert firmware.clock.now == pytest.approx(before + 100 * 50e-6, rel=1e-6)


def test_config_read_refused_while_streaming():
    firmware = make_firmware()
    firmware.handle_input(b"S")
    with pytest.raises(DeviceError):
        firmware.handle_input(b"R")


def test_stream_structure():
    firmware = make_firmware()
    firmware.handle_input(b"S")
    data = firmware.produce(4)
    events = list(StreamDecoder().feed(data))
    timestamps = [e for e in events if isinstance(e, Timestamp)]
    readings = [e for e in events if isinstance(e, SensorReading)]
    assert len(timestamps) == 4
    assert len(readings) == 4 * 2  # one enabled pair


def test_marker_attached_to_next_sample():
    firmware = make_firmware()
    firmware.handle_input(b"S")
    firmware.produce(2)
    firmware.handle_input(b"M")
    events = list(StreamDecoder().feed(firmware.produce(3)))
    marked = [e for e in events if isinstance(e, SensorReading) and e.marker]
    assert len(marked) == 1
    assert marked[0].sensor == 0


def test_two_markers_mark_two_samples():
    firmware = make_firmware()
    firmware.handle_input(b"SMM")
    events = list(StreamDecoder().feed(firmware.produce(5)))
    marked = [e for e in events if isinstance(e, SensorReading) and e.marker]
    assert len(marked) == 2


def test_reboot_resets_state():
    firmware = make_firmware()
    firmware.handle_input(b"S")
    firmware.handle_input(b"B")
    assert not firmware.streaming
    assert firmware.boot_count == 1
    assert not firmware.dfu_mode
    firmware.handle_input(b"D")
    assert firmware.dfu_mode


def test_bandwidth_fits_usb_full_speed():
    firmware = make_firmware((0, 1, 2, 3))
    assert firmware.data_rate_bps() < 12e6
    firmware.handle_input(b"S")  # must not raise


def test_bytes_per_sample():
    firmware = make_firmware((0, 1))
    assert firmware.bytes_per_sample() == 2 + 2 * 4


def test_produce_values_match_baseboard():
    firmware = make_firmware()
    firmware.handle_input(b"S")
    data = firmware.produce(50)
    events = list(StreamDecoder().feed(data))
    values = [e.value for e in events if isinstance(e, SensorReading) and e.sensor == 0]
    mean_code = np.mean(values)
    # 4 A on a 0.12 V/A sensor: 1.65 + 0.48 V -> code ~ 660.
    assert mean_code == pytest.approx(2.13 / (3.3 / 1024), rel=0.02)


def test_display_refresh_only_when_idle():
    firmware = make_firmware()
    frames_before = firmware.baseboard.display.stats.frames_rendered
    firmware.display_refresh()
    assert firmware.baseboard.display.stats.frames_rendered == frames_before + 1
    firmware.handle_input(b"S")
    firmware.display_refresh()
    assert firmware.baseboard.display.stats.frames_rendered == frames_before + 1


def test_timestamps_wrap_consistently():
    firmware = make_firmware()
    firmware.handle_input(b"S")
    data = firmware.produce(40)
    events = list(StreamDecoder().feed(data))
    raw = [e.micros for e in events if isinstance(e, Timestamp)]
    deltas = [(b - a) % 1024 for a, b in zip(raw, raw[1:])]
    assert all(d == 50 for d in deltas)


def _marked(events):
    return [e for e in events if isinstance(e, SensorReading) and e.marker]


def test_marker_dropped_when_sensor0_disabled():
    firmware = make_firmware()
    firmware.eeprom.update(0, enabled=False)
    firmware.handle_input(b"SM")
    events = list(StreamDecoder().feed(firmware.produce(4)))
    assert not _marked(events)
    assert firmware.markers_dropped == 1


def test_no_spurious_marker_after_sensor0_reenable():
    """A marker that could not be attached must not fire later."""
    firmware = make_firmware()
    firmware.eeprom.update(0, enabled=False)
    firmware.handle_input(b"SMM")
    firmware.produce(5)
    assert firmware.markers_dropped == 2
    firmware.eeprom.update(0, enabled=True)
    events = list(StreamDecoder().feed(firmware.produce(5)))
    assert not _marked(events)  # the dropped markers stay dropped
    firmware.handle_input(b"M")  # a fresh marker still works
    events = list(StreamDecoder().feed(firmware.produce(3)))
    assert len(_marked(events)) == 1
    assert firmware.markers_dropped == 2


def test_enabled_sensors_cache_tracks_eeprom_changes():
    firmware = make_firmware()
    first = firmware.enabled_sensors()
    assert firmware.enabled_sensors() is first  # cached between writes
    firmware.eeprom.update(0, enabled=False)
    assert firmware.enabled_sensors() == [1]  # in-place write invalidates
    image = firmware.eeprom.pack()
    firmware.handle_input(b"W" + image)  # replacing the EEPROM invalidates
    assert firmware.enabled_sensors() == [1]
    firmware.eeprom.update(0, enabled=True)
    assert firmware.enabled_sensors() == [0, 1]


def test_reboot_resets_marker_accounting():
    firmware = make_firmware()
    firmware.eeprom.update(0, enabled=False)
    firmware.handle_input(b"SM")
    firmware.produce(2)
    assert firmware.markers_dropped == 1
    firmware.handle_input(b"B")
    assert firmware.markers_dropped == 0


# --------------------------------------------------------------------- #
# Encoder oracle                                                        #
# --------------------------------------------------------------------- #


def reference_packets(
    codes: np.ndarray,
    sensors: list[int],
    origin: float,
    first: int,
    timing: AdcTiming,
    n_mark: int,
) -> bytes:
    """The packet bytes of ``codes`` (n, 8), encoded one sensor at a time.

    The reference for :meth:`Firmware.produce`, which encodes every
    field at once as little-endian words: a timestamp packet, then one
    packet per enabled sensor, per sample; the first ``n_mark`` samples
    carry sensor 0's marker bit.
    """
    n_samples = codes.shape[0]
    packets = np.zeros((n_samples, 1 + len(sensors), 2), dtype=np.uint8)
    ts_times = origin + np.arange(first, first + n_samples) * timing.output_interval_s
    ts_times = ts_times + 3 * timing.scan_time_s
    micros = np.round(ts_times * 1e6).astype(np.int64) % TIMESTAMP_WRAP_US
    packets[:, 0, 0] = 0x80 | (TIMESTAMP_SENSOR << 4) | 0x08 | (micros >> 7)
    packets[:, 0, 1] = micros & 0x7F
    marker_flags = np.zeros(n_samples, dtype=np.uint8)
    if 0 in sensors:
        marker_flags[:n_mark] = 1
    for field, sensor in enumerate(sensors, start=1):
        values = codes[:, sensor].astype(np.int64)
        byte0 = 0x80 | (sensor << 4) | (values >> 7)
        if sensor == 0:
            byte0 = byte0 | (marker_flags << 3)
        packets[:, field, 0] = byte0
        packets[:, field, 1] = values & 0x7F
    return packets.tobytes()


class CodesBoard:
    """A baseboard stand-in whose averaged codes are given, by sample index."""

    def __init__(self, codes: np.ndarray) -> None:
        self.codes = codes
        self.timing = AdcTiming()

    def averaged_codes(self, start: float, n_output: int, first: int = 0) -> np.ndarray:
        return self.codes[first : first + n_output]


def _configs(enabled: list[bool]) -> VirtualEeprom:
    eeprom = VirtualEeprom()
    for sensor, on in enumerate(enabled):
        if on:
            # Distinct conversions, so a column mix-up changes the values.
            eeprom.update(sensor, vref=0.1 * sensor, slope=0.5 + sensor, enabled=True)
    return eeprom


@settings(max_examples=60, deadline=None)
@given(
    enabled=st.lists(st.booleans(), min_size=SENSORS, max_size=SENSORS).filter(any),
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=3),
    markers=st.integers(0, 70),
    idle=st.integers(0, 50_000),
    origin=st.floats(0.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_produce_matches_the_per_sensor_encoder(enabled, sizes, markers, idle, origin, seed):
    codes = np.random.default_rng(seed).integers(0, 1024, (idle + sum(sizes), SENSORS))
    board = CodesBoard(codes)
    firmware = Firmware(board, eeprom=_configs(enabled), clock=VirtualClock(origin))
    sensors = [sensor for sensor, on in enumerate(enabled) if on]
    link = VirtualSerialLink(firmware)
    template, generic = ProtocolSampleSource(link), ProtocolSampleSource(link)
    firmware.produce(idle)  # not streaming yet: time passes, nothing is sent
    firmware.handle_input(b"S" + b"M" * markers)
    pending = markers
    for n in sizes:
        first = firmware.clock.ticks
        data = firmware.produce(n)
        n_mark = min(pending, n)
        expected = reference_packets(
            codes[first : first + n], sensors, firmware.clock.origin, first, board.timing, n_mark
        )
        assert data == expected
        pending -= n_mark

        fast = template._decode_template(data)
        slow = generic._decode_generic(data)
        assert fast is not None
        for name in ("times", "values", "markers", "enabled"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))
        assert fast.values.tobytes() == slow.values.tobytes()
        assert int(fast.markers.sum()) == (n_mark if enabled[0] else 0)
    assert firmware.markers_dropped == (0 if enabled[0] else markers - pending)
