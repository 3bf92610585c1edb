"""Power-rail abstractions and traces."""

import numpy as np
import pytest

from repro.common.errors import MeasurementError
from repro.dut.base import (
    ConstantRail,
    FunctionRail,
    PowerTrace,
    ScaledRail,
    SegmentRail,
    SplitRail,
    TraceRail,
)


def make_trace():
    return PowerTrace(
        times=np.array([0.0, 1.0, 2.0]),
        volts=np.array([12.0, 12.0, 12.0]),
        amps=np.array([1.0, 2.0, 0.5]),
    )


def test_trace_validation():
    with pytest.raises(MeasurementError):
        PowerTrace(times=np.array([0.0, 1.0]), volts=np.array([1.0]), amps=np.array([1.0, 1.0]))
    with pytest.raises(MeasurementError):
        PowerTrace(times=np.array([]), volts=np.array([]), amps=np.array([]))
    with pytest.raises(MeasurementError):
        PowerTrace(
            times=np.array([1.0, 0.5]),
            volts=np.array([1.0, 1.0]),
            amps=np.array([1.0, 1.0]),
        )


def test_trace_energy_sample_and_hold():
    trace = make_trace()
    # 12 W for 1 s + 24 W for 1 s.
    assert trace.energy() == pytest.approx(36.0)
    assert trace.mean_power() == pytest.approx(18.0)
    assert trace.duration == pytest.approx(2.0)


def test_constant_rail():
    volts, amps = ConstantRail(3.3, 1.5).sample_uniform(0.0, 0.1, 4)
    assert np.allclose(volts, 3.3)
    assert np.allclose(amps, 1.5)


def test_function_rail_broadcasts_scalars():
    rail = FunctionRail(lambda t: (12.0, np.sin(t)))
    volts, amps = rail.sample_uniform(0.0, 0.5, 3)
    assert np.allclose(volts, 12.0)
    assert amps.shape == (3,)


def test_trace_rail_sample_and_hold():
    rail = TraceRail(make_trace())
    volts, amps = rail.sample_uniform(0.5, 1.0, 3)  # t = 0.5, 1.5, 2.5
    assert np.allclose(amps, [1.0, 2.0, 0.5])


def test_trace_rail_clamps_outside():
    rail = TraceRail(make_trace())
    _, amps = rail.sample_uniform(-1.0, 5.0, 2)  # t = -1, 4
    assert amps[0] == 1.0
    assert amps[1] == 0.5


def test_trace_rail_offset_shifts_timeline():
    rail = TraceRail(make_trace(), offset=10.0)
    _, amps = rail.sample_uniform(11.5, 1.0, 1)  # trace time 1.5
    assert amps[0] == 2.0


def test_scaled_rail():
    rail = ScaledRail(ConstantRail(12.0, 2.0), volt_scale=0.5, amp_scale=2.0)
    volts, amps = rail.sample_uniform(0.0, 1.0, 1)
    assert volts[0] == 6.0
    assert amps[0] == 4.0


def test_split_rail_shares_power():
    rail = SplitRail(make_trace(), share=0.3, volts=12.0)  # 12, 24, 6 W
    volts, amps = rail.sample_uniform(-0.5, 0.5, 7)
    assert np.allclose(volts * amps, 0.3 * np.array([12, 12, 12, 24, 24, 6, 6]))
    assert np.all(volts == 12.0)
    assert [a.size for a in rail.sample_uniform(0.0, 1.0, 0)] == [0, 0]


def test_split_rail_droop():
    trace = PowerTrace(times=[0.0, 1.0], volts=[12.0, 12.0], amps=[10.0, 5.0])
    rail = SplitRail(trace, share=1.0, volts=12.0, droop_ohms=0.01)
    volts, amps = rail.sample_uniform(0.0, 1.0, 2)
    assert volts[0] < volts[1] < 12.0
    assert volts * amps == pytest.approx([120.0, 60.0])


def test_split_rail_share_bounds():
    with pytest.raises(MeasurementError):
        SplitRail(make_trace(), share=1.5, volts=12.0)


def test_segment_rail_idle_and_segments():
    rail = SegmentRail(volts=12.0, idle_watts=10.0)
    rail.schedule(1.0, 2.0, 100.0)
    volts, amps = rail.sample_uniform(0.5, 0.5, 4)  # 0.5, 1.0, 1.5, 2.0
    power = volts * amps
    assert np.allclose(power, [10.0, 100.0, 100.0, 10.0])


def test_segment_rail_requires_time_order():
    rail = SegmentRail(12.0, 5.0)
    rail.schedule(1.0, 2.0, 50.0)
    with pytest.raises(MeasurementError):
        rail.schedule(1.5, 3.0, 60.0)
    with pytest.raises(MeasurementError):
        rail.schedule(5.0, 5.0, 60.0)


def test_segment_rail_prune():
    rail = SegmentRail(12.0, 5.0)
    rail.schedule(0.0, 1.0, 50.0)
    rail.schedule(2.0, 3.0, 60.0)
    rail.prune_before(1.5)
    _, amps = rail.sample_uniform(2.5, 1.0, 1)
    assert amps[0] * 12.0 == pytest.approx(60.0)


def test_power_trace_save_load_roundtrip(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.npz"
    trace.save(path)
    restored = PowerTrace.load(path)
    assert np.array_equal(restored.times, trace.times)
    assert np.array_equal(restored.amps, trace.amps)
    assert restored.energy() == pytest.approx(trace.energy())
