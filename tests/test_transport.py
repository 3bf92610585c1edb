"""Virtual serial link: buffering, bandwidth accounting, lifecycle."""

import pytest

from repro.common.errors import TransportError
from repro.common.rng import RngStream
from repro.dut.base import ConstantRail
from repro.firmware.device import Firmware
from repro.hardware.baseboard import Baseboard
from repro.hardware.modules import SensorModule
from repro.transport.link import VirtualSerialLink


def make_link(**kwargs) -> VirtualSerialLink:
    board = Baseboard()
    board.attach(0, SensorModule.manufacture("pcie_slot_12v", RngStream(0)))
    board.connect(0, ConstantRail(12.0, 1.0))
    return VirtualSerialLink(Firmware(board), **kwargs)


def test_write_reaches_firmware():
    link = make_link()
    link.write(b"S")
    assert link.firmware.streaming


def test_command_response_buffered():
    link = make_link()
    link.write(b"V")
    assert link.in_waiting > 0
    assert link.read().endswith(b"\x00")


def test_pump_samples_returns_stream_bytes():
    link = make_link()
    link.write(b"S")
    data = link.pump_samples(10)
    assert len(data) == 10 * link.firmware.bytes_per_sample()
    assert link.in_waiting == 0


def test_partial_read_keeps_remainder():
    link = make_link()
    link.write(b"V")
    total = link.in_waiting
    first = link.read(3)
    assert len(first) == 3
    assert link.in_waiting == total - 3


def test_buffer_overflow_raises():
    link = make_link(buffer_limit=8)
    with pytest.raises(TransportError, match="overflow"):
        link.write(b"V")  # version string exceeds 8 bytes


def test_closed_link_refuses_io():
    link = make_link()
    link.close()
    with pytest.raises(TransportError):
        link.write(b"S")
    with pytest.raises(TransportError):
        link.read()


def test_utilization_well_below_capacity():
    link = make_link()
    link.write(b"S")
    link.pump_samples(2000)
    utilization = link.utilization()
    assert 0.0 < utilization < 0.2  # 6 B / 50 us = 0.96 Mbit/s on 12 Mbit/s


def test_byte_accounting():
    link = make_link()
    link.write(b"S")
    link.pump_samples(5)
    assert link.bytes_to_device == 1
    assert link.bytes_to_host == 5 * link.firmware.bytes_per_sample()
    assert link.busy_seconds > 0
