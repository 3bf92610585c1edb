"""Transducer models: gains, offsets, noise, clipping, drift."""

import numpy as np
import pytest

from repro.common.rng import RngStream
from repro.hardware.sensors import CurrentSensor, VoltageSensor


def make_current(noise=0.0, **kwargs) -> CurrentSensor:
    kwargs.setdefault("tempco_a_per_k", 0.0)  # exact-value tests: no drift
    return CurrentSensor(0.12, noise, RngStream(0), **kwargs)


def make_voltage(noise=0.0, **kwargs) -> VoltageSensor:
    return VoltageSensor(0.125, noise, RngStream(0), **kwargs)


def test_current_zero_sits_at_midscale():
    sensor = make_current()
    out = sensor.transduce_uniform(np.zeros(4), 0.0, 1e-4)
    assert out == pytest.approx(1.65, abs=1e-6)


def test_current_gain():
    sensor = make_current()
    out = sensor.transduce_uniform(np.array([1.0, -1.0, 5.0]), 0.0, 1e-4)
    assert out == pytest.approx([1.77, 1.53, 2.25], abs=1e-9)


def test_current_offset_applied():
    sensor = make_current(offset_a=0.5)
    out = sensor.transduce_uniform(np.zeros(1), 0.0, 1e-4)
    assert out[0] == pytest.approx(1.65 + 0.5 * 0.12, abs=1e-9)


def test_current_clips_at_rails():
    sensor = make_current()
    out = sensor.transduce_uniform(np.array([1000.0, -1000.0]), 0.0, 1e-4)
    assert out[0] == 3.3
    assert out[1] == 0.0


def test_current_nonlinearity_cubic():
    sensor = make_current(nonlinearity=1e-4)
    linear = make_current()
    amps = np.array([10.0])
    delta = sensor.transduce_uniform(amps, 0.0, 1e-4) - linear.transduce_uniform(
        amps, 0.0, 1e-4
    )
    assert delta[0] == pytest.approx(1e-4 * 1000.0 * 0.12, abs=1e-9)


def test_current_noise_amplitude():
    sensor = CurrentSensor(0.12, 0.115, RngStream(1))
    out = sensor.transduce_uniform(np.zeros(100_000), 0.0, 1e-3)
    assert out.std() == pytest.approx(0.115 * 0.12, rel=0.03)


def test_current_drift_is_deterministic_in_time():
    sensor = make_current()
    a = sensor._drift.offset_at(3600.0)
    b = sensor._drift.offset_at(3600.0)
    assert a == b


def test_current_drift_bounded():
    sensor = CurrentSensor(0.12, 0.0, RngStream(2), tempco_a_per_k=2e-3)
    times = np.linspace(0, 50 * 3600, 1000)
    drift = sensor._drift.offset_at(times)
    assert np.abs(drift).max() < 0.05  # well under 1 % of a 10 A range


def test_current_rejects_bad_sensitivity():
    with pytest.raises(ValueError):
        CurrentSensor(0.0, 0.1, RngStream(0))


def test_voltage_gain():
    sensor = make_voltage()
    out = sensor.transduce_uniform(np.array([12.0]), 0.0, 1e-4)
    assert out[0] == pytest.approx(1.5, abs=1e-9)


def test_voltage_gain_error():
    sensor = make_voltage(gain_error=0.01)
    out = sensor.transduce_uniform(np.array([12.0]), 0.0, 1e-4)
    assert out[0] == pytest.approx(1.5 * 1.01, abs=1e-9)


def test_voltage_clips():
    sensor = make_voltage()
    out = sensor.transduce_uniform(np.array([100.0, -5.0]), 0.0, 1e-4)
    assert out[0] == 3.3
    assert out[1] == 0.0


def test_voltage_noise_is_input_referred():
    sensor = VoltageSensor(0.125, 0.006, RngStream(3))
    out = sensor.transduce_uniform(np.full(100_000, 12.0), 0.0, 1e-3)
    assert out.std() == pytest.approx(0.006 * 0.125, rel=0.03)


def test_voltage_rejects_bad_gain():
    with pytest.raises(ValueError):
        VoltageSensor(-1.0, 0.0, RngStream(0))
