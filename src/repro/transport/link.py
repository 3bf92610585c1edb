"""Virtual USB-serial link with a bandwidth model.

The Black Pill's USB controller is full-speed only (12 Mbit/s), which is
the design constraint that drove the choice of a 20 kHz output rate instead
of streaming raw ADC conversions (paper, Section III-B).  The link model
enforces a finite device-side buffer and accounts transfer time so tests
can assert the sustained data rate fits the pipe.
"""

from __future__ import annotations

from repro.common.errors import TransportError
from repro.common.units import USB_FULL_SPEED_BPS
from repro.firmware.device import Firmware


class VirtualSerialLink:
    """Host handle to a simulated device.

    Host writes are delivered to the firmware immediately (commands are a
    handful of bytes).  Host reads *pull* the device: reading ``n`` samples
    worth of data advances the device's simulated clock, exactly as a
    blocking read against real hardware passes wall-clock time.
    """

    def __init__(
        self,
        firmware: Firmware,
        bandwidth_bps: float = USB_FULL_SPEED_BPS,
        buffer_limit: int = 1 << 22,
    ) -> None:
        self.firmware = firmware
        self.bandwidth_bps = float(bandwidth_bps)
        self._seconds_per_byte = 8.0 / self.bandwidth_bps
        self.buffer_limit = int(buffer_limit)
        self._rx = bytearray()  # device -> host bytes not yet read
        self.is_open = True
        self.bytes_to_host = 0
        self.bytes_to_device = 0
        self.busy_seconds = 0.0

    def _check_open(self) -> None:
        if not self.is_open:
            raise TransportError("link is closed")

    def write(self, data: bytes) -> None:
        """Host -> device."""
        self._check_open()
        self.bytes_to_device += len(data)
        self.busy_seconds += len(data) * self._seconds_per_byte
        self.firmware.handle_input(data)
        self._buffer(self.firmware.flush_responses())

    def _buffer(self, data: bytes) -> None:
        if not data:
            return
        if len(self._rx) + len(data) > self.buffer_limit:
            raise TransportError(
                f"device buffer overflow ({len(self._rx) + len(data)} bytes)"
            )
        self._rx.extend(data)
        self.bytes_to_host += len(data)
        self.busy_seconds += len(data) * self._seconds_per_byte

    @property
    def in_waiting(self) -> int:
        return len(self._rx)

    def read(self, n: int | None = None) -> bytes:
        """Drain up to ``n`` buffered bytes (all, if ``n`` is None)."""
        self._check_open()
        rx = self._rx
        if n is None or n >= len(rx):
            out = bytes(rx)  # single copy: drain the whole buffer
            rx.clear()
            return out
        out = bytes(rx[:n])
        del rx[:n]
        return out

    def pump_samples(self, n_samples: int) -> bytes:
        """Advance the device by ``n_samples`` output intervals and read.

        This is the simulation analogue of a blocking read: the device
        produces the bytes covering that much simulated time and they are
        returned (after passing through the buffer accounting).

        This is also the producer-side hot call of
        :class:`repro.transport.shm.ProducerLink`, which runs it in large
        batches off the consumer's read path and hands the returned
        buffer straight to the shared ring.
        """
        self._check_open()
        data = self.firmware.produce(n_samples)
        if not self._rx:
            # Nothing buffered: hand the produced bytes straight to the
            # host (no extend + re-slice copies), with the same overflow
            # and traffic accounting as the buffered path.
            if len(data) > self.buffer_limit:
                raise TransportError(f"device buffer overflow ({len(data)} bytes)")
            self.bytes_to_host += len(data)
            self.busy_seconds += len(data) * self._seconds_per_byte
            return data
        self._buffer(data)
        return self.read()

    def utilization(self) -> float:
        """Fraction of the link capacity the produced traffic would use."""
        elapsed = self.firmware.clock.now
        if elapsed <= 0:
            return 0.0
        return (self.bytes_to_host * 8 / elapsed) / self.bandwidth_bps

    def close(self) -> None:
        self.is_open = False
