"""STM32F411 ADC model: quantisation and scan timing.

The firmware configures the ADC for 10-bit resolution with a 15-cycle
sampling time at a 24 MHz ADC clock; together with the 10 conversion cycles
that is 25 cycles = 1.04 us per conversion (paper, Section III-B).  Eight
channels (four current/voltage pairs) are scanned sequentially and six
consecutive scans are averaged by the CPU, yielding a 50 us output interval
(20 kHz).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class AdcTiming:
    """Scan timing derived from the ADC configuration.

    The derived times are computed once per instance: a read asks for
    them many times, and they depend only on the frozen fields.
    """

    clock_hz: float = 24e6
    sampling_cycles: int = 15
    resolution_bits: int = 10
    channels: int = 8
    averages: int = 6

    @cached_property
    def cycles_per_conversion(self) -> int:
        # Each bit costs one clock cycle to convert, on top of sampling.
        return self.sampling_cycles + self.resolution_bits

    @cached_property
    def conversion_time_s(self) -> float:
        return self.cycles_per_conversion / self.clock_hz

    @cached_property
    def scan_time_s(self) -> float:
        """Time to read all channels once."""
        return self.channels * self.conversion_time_s

    @cached_property
    def output_interval_s(self) -> float:
        """Time per averaged output sample (50 us at default settings)."""
        return self.scan_time_s * self.averages

    @cached_property
    def output_rate_hz(self) -> float:
        return 1.0 / self.output_interval_s


class Adc:
    """Ideal mid-tread quantiser with configurable resolution and reference."""

    def __init__(self, bits: int = 10, vref: float = 3.3) -> None:
        if bits < 1:
            raise ValueError("ADC needs at least one bit")
        if vref <= 0:
            raise ValueError("vref must be positive")
        self.bits = int(bits)
        self.vref = float(vref)
        self.levels = 1 << self.bits
        self.lsb = self.vref / self.levels

    def quantize(self, volts: np.ndarray) -> np.ndarray:
        """Convert analog voltages to integer codes in [0, levels-1].

        The codes are clamped in place: ``np.clip`` on integers builds
        the dtype's limits in Python on every call.
        """
        steps = np.asarray(volts, dtype=float) / self.lsb
        codes = np.floor(steps, out=steps).astype(np.int64)
        np.maximum(codes, 0, out=codes)
        return np.minimum(codes, self.levels - 1, out=codes)

    def to_volts(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruction voltage (code centre) for integer codes."""
        codes = np.asarray(codes)
        return (codes.astype(float) + 0.5) * self.lsb
