"""ADC quantiser and scan timing."""

import numpy as np
import pytest

from repro.common.rng import RngStream
from repro.hardware.adc import Adc, AdcTiming
from repro.hardware.baseboard import Baseboard
from repro.hardware.modules import SensorModule


def test_default_timing_is_20khz():
    timing = AdcTiming()
    assert timing.cycles_per_conversion == 25
    assert timing.conversion_time_s == pytest.approx(25 / 24e6)
    assert timing.scan_time_s == pytest.approx(8 * 25 / 24e6)
    assert timing.output_interval_s == pytest.approx(50e-6, rel=1e-3)
    assert timing.output_rate_hz == pytest.approx(20_000, rel=1e-3)


class RecordingRail:
    """A zero-power rail that records the sample times it is asked for."""

    def __init__(self) -> None:
        self.times: list[np.ndarray] = []

    def sample_uniform(self, start, dt, n, first=0):
        self.times.append(start + dt * np.arange(first, first + n))
        return np.zeros(n), np.zeros(n)


START, N_OUTPUT, FIRST = 1.0, 3, 5


def read_times():
    """The (current, voltage) sample times ``read_codes`` asks each rail for."""
    board = Baseboard(AdcTiming())
    rails = {}
    for slot in (0, 2, 3):
        board.attach(slot, SensorModule.manufacture("pcie_slot_12v", RngStream(slot)))
        rails[slot] = RecordingRail()
        board.connect(slot, rails[slot])
    board.read_codes(START, N_OUTPUT, FIRST)
    return {slot: rail.times for slot, rail in rails.items()}


def test_channel_offsets_monotonic():
    # Within a scan the channels convert in order, all before the next scan.
    times = read_times()
    per_channel = np.stack([t for slot in sorted(times) for t in times[slot]])
    assert (np.diff(per_channel, axis=0) > 0).all()
    assert per_channel[-1, 0] < per_channel[0, 1]


def test_subsample_times():
    # Scan a of output sample j starts at start + ((first + j) * averages + a)
    # * scan_time; slot s's current channel converts 2s conversions into
    # the scan and its voltage channel one conversion later.
    timing = AdcTiming()
    scans = (FIRST + np.arange(N_OUTPUT))[:, None] * timing.averages + np.arange(
        timing.averages
    )
    grid = START + scans.ravel() * timing.scan_time_s
    for slot, (current, voltage) in read_times().items():
        offset = 2 * slot * timing.conversion_time_s
        np.testing.assert_allclose(current, grid + offset, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            voltage, current + timing.conversion_time_s, rtol=0, atol=1e-15
        )


def test_quantize_bounds():
    adc = Adc()
    codes = adc.quantize(np.array([-1.0, 0.0, 3.3, 10.0]))
    assert codes[0] == 0
    assert codes[1] == 0
    assert codes[2] == 1023
    assert codes[3] == 1023


def test_quantize_monotonic():
    adc = Adc()
    volts = np.linspace(0, 3.3, 10_000)
    codes = adc.quantize(volts)
    assert (np.diff(codes) >= 0).all()


def test_quantize_midscale():
    adc = Adc()
    assert adc.quantize(np.array([1.65]))[0] == 512


def test_to_volts_inverts_within_lsb():
    adc = Adc()
    volts = np.linspace(0.01, 3.29, 1000)
    recon = adc.to_volts(adc.quantize(volts))
    assert np.abs(recon - volts).max() <= adc.lsb / 2 + 1e-12


def test_lsb():
    assert Adc(bits=10, vref=3.3).lsb == pytest.approx(3.3 / 1024)
    assert Adc(bits=12, vref=3.0).lsb == pytest.approx(3.0 / 4096)


def test_invalid_adc_parameters():
    with pytest.raises(ValueError):
        Adc(bits=0)
    with pytest.raises(ValueError):
        Adc(vref=0.0)
