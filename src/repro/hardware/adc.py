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

import numpy as np


@dataclass(frozen=True)
class AdcTiming:
    """Scan timing derived from the ADC configuration."""

    clock_hz: float = 24e6
    sampling_cycles: int = 15
    resolution_bits: int = 10
    channels: int = 8
    averages: int = 6

    @property
    def cycles_per_conversion(self) -> int:
        # Each bit costs one clock cycle to convert, on top of sampling.
        return self.sampling_cycles + self.resolution_bits

    @property
    def conversion_time_s(self) -> float:
        return self.cycles_per_conversion / self.clock_hz

    @property
    def scan_time_s(self) -> float:
        """Time to read all channels once."""
        return self.channels * self.conversion_time_s

    @property
    def output_interval_s(self) -> float:
        """Time per averaged output sample (50 us at default settings)."""
        return self.scan_time_s * self.averages

    @property
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

    @property
    def lsb(self) -> float:
        return self.vref / self.levels

    def quantize(self, volts: np.ndarray) -> np.ndarray:
        """Convert analog voltages to integer codes in [0, levels-1]."""
        volts = np.asarray(volts, dtype=float)
        codes = np.floor(volts / self.lsb).astype(np.int64)
        return np.clip(codes, 0, self.levels - 1)

    def to_volts(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruction voltage (code centre) for integer codes."""
        codes = np.asarray(codes)
        return (codes.astype(float) + 0.5) * self.lsb
