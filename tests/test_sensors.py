"""Transducer models: gains, offsets, noise, clipping, drift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RngStream
from repro.hardware.adc import AdcTiming
from repro.hardware.modules import SensorModule
from repro.hardware.sensors import (
    DRIFT_KNOT_SCANS,
    CurrentSensor,
    ExternalField,
    VoltageSensor,
)

SCAN_S = AdcTiming().scan_time_s
#: Scans in one 8192-sample pump (six per output sample).
PUMP_SCANS = 6 * 8192
#: 50 hours of scans, the span of the paper's stability run (Section IV-B).
RUN_SCANS = int(50 * 3600 / SCAN_S)


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


@pytest.mark.parametrize("key", ["pcie_slot_12v", "pcie8pin", "usbc"])
def test_knot_drift_stays_within_1e_12_a_of_offset_at_over_a_50_hour_run(key):
    drift = SensorModule.manufacture(key, RngStream(5, key)).current_sensor._drift
    start = 2 * AdcTiming().conversion_time_s
    # Windows spread over the run, starting off the knot grid.
    for first in np.linspace(0, 2e10, 13).astype(np.int64) + 1234:
        assert first + PUMP_SCANS <= RUN_SCANS
        got = drift.offset_on_grid(start, SCAN_S, int(first), PUMP_SCANS)
        want = drift.offset_at(start + SCAN_S * np.arange(first, first + PUMP_SCANS))
        # The 10-bit LSB is 0.027 A on the most sensitive module.
        assert np.abs(got - want).max() <= 1e-12, first
        on_knots = (np.arange(first, first + PUMP_SCANS) % DRIFT_KNOT_SCANS) == 0
        assert np.array_equal(got[on_knots], want[on_knots])


@settings(max_examples=30, deadline=None)
@given(
    grids=st.lists(
        st.tuples(
            st.sampled_from([0.0, 2 * AdcTiming().conversion_time_s, 3600.0]),
            st.sampled_from([SCAN_S, 2 * SCAN_S]),
            st.integers(0, 3 * DRIFT_KNOT_SCANS),
            st.integers(1, 2 * DRIFT_KNOT_SCANS),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_knot_drift_on_a_grid_does_not_depend_on_the_grids_before(grids):
    """The knot values kept from one read are reused only on their own span."""
    drift = CurrentSensor(0.12, 0.0, RngStream(7, "hall"))._drift
    for start, dt, first, n in grids:
        fresh = CurrentSensor(0.12, 0.0, RngStream(7, "hall"))._drift
        got = drift.offset_on_grid(start, dt, first, n)
        assert got.tobytes() == fresh.offset_on_grid(start, dt, first, n).tobytes()


@st.composite
def scan_grid_splits(draw):
    """A scan grid from ``first`` and cuts, some on or next to a drift knot."""
    first = draw(st.integers(0, 2 * 10**10))
    n = 3 * DRIFT_KNOT_SCANS + draw(st.integers(1, 500))
    knots = np.arange(-first % DRIFT_KNOT_SCANS, n, DRIFT_KNOT_SCANS)
    near_knots = st.builds(
        lambda knot, delta: int(knot) + delta, st.sampled_from(knots), st.integers(-1, 1)
    )
    cuts = draw(st.lists(st.one_of(st.integers(1, n - 1), near_knots), max_size=8))
    return first, n, sorted({0, n, *(c for c in cuts if 0 < c < n)})


def hall_sensor(field: bool) -> CurrentSensor:
    return CurrentSensor(
        0.12,
        0.115,
        RngStream(7, "hall"),
        offset_a=0.05,
        nonlinearity=1e-5,
        external_field=ExternalField(0.5, 0.2) if field else None,
    )


@settings(max_examples=40, deadline=None)
@given(split=scan_grid_splits(), field=st.booleans())
def test_any_split_of_a_scan_grid_transduces_identically(split, field):
    first, n, edges = split
    currents = np.random.default_rng(first % 1000).uniform(-5.0, 20.0, n)
    start = 3 * AdcTiming().conversion_time_s
    whole = hall_sensor(field).transduce_uniform(currents, start, SCAN_S, first)
    sensor = hall_sensor(field)
    pieces = [
        sensor.transduce_uniform(currents[lo:hi], start, SCAN_S, first + lo)
        for lo, hi in zip(edges, edges[1:])
    ]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


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
