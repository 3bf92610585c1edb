"""Analysis package: accuracy math, step metrics, stability, pareto."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    current_error,
    power_error,
    voltage_error,
    worst_case_accuracy,
)
from repro.analysis.averaging import averaging_table
from repro.analysis.energy import (
    ActivityWindow,
    count_dips,
    detect_activity,
    integrate_energy,
    running_median,
)
from repro.analysis.pareto import dominates, hypervolume_2d, pareto_front
from repro.analysis.stability import StabilityPoint, stability_statistics
from repro.analysis.stepresponse import measure_step
from repro.common.errors import MeasurementError
from repro.hardware.modules import module_spec


# --------------------------------------------------------------------- #
# Accuracy (Table I math)                                               #
# --------------------------------------------------------------------- #


def test_power_error_formula():
    # E_p = sqrt((U*E_i)^2 + (I*E_u)^2 + (E_i*E_u)^2), paper Section III-A.
    assert power_error(12.0, 10.0, 0.0286, 0.35) == pytest.approx(4.21, abs=0.01)


def test_power_error_small_load_dominated_by_current_term():
    e_small = power_error(12.0, 0.1, 0.0286, 0.35)
    assert e_small == pytest.approx(12.0 * 0.35, rel=0.01)


@pytest.mark.parametrize(
    "key,paper_ep",
    [
        ("pcie_slot_12v", 4.2),
        ("pcie_slot_3v3", 1.2),
        ("usbc", 7.0),
        ("pcie8pin", 5.0),
    ],
)
def test_table1_within_5_percent(key, paper_ep):
    accuracy = worst_case_accuracy(module_spec(key))
    assert accuracy.power_error_w == pytest.approx(paper_ep, rel=0.05)


def test_current_error_includes_quantization():
    spec = module_spec("pcie_slot_12v")
    noise_only = 3 * spec.current_noise_rms_a
    assert current_error(spec) > noise_only


def test_voltage_error_larger_for_bigger_divider():
    assert voltage_error(module_spec("pcie_slot_12v")) > voltage_error(
        module_spec("pcie_slot_3v3")
    )


# --------------------------------------------------------------------- #
# Averaging (Table II math)                                             #
# --------------------------------------------------------------------- #


def test_averaging_table_sqrt_n():
    rng = np.random.default_rng(0)
    power = 96.0 + rng.normal(0, 0.72, size=128 * 1024)
    rows = averaging_table(power, 20_000.0)
    assert [r.rate_khz for r in rows] == [20.0, 10.0, 5.0, 1.0, 0.5]
    assert rows[0].std == pytest.approx(0.72, rel=0.02)
    assert rows[-1].std == pytest.approx(0.72 / np.sqrt(40), rel=0.05)
    assert rows[0].peak_to_peak > rows[-1].peak_to_peak


# --------------------------------------------------------------------- #
# Step response                                                          #
# --------------------------------------------------------------------- #


def make_step(rise_samples=2, n=400, dt=5e-5):
    times = np.arange(n) * dt
    values = np.where(times < times[n // 2], 40.0, 96.0)
    for k in range(rise_samples):
        idx = n // 2 + k
        values[idx] = 40.0 + (96.0 - 40.0) * (k + 1) / (rise_samples + 1)
    return times, values


def test_measure_step_levels():
    times, values = make_step()
    metrics = measure_step(times, values)
    assert metrics.low_level == pytest.approx(40.0)
    assert metrics.high_level == pytest.approx(96.0)
    assert metrics.amplitude == pytest.approx(56.0)


def test_measure_step_rise_time_scales_with_edge():
    t_fast, v_fast = make_step(rise_samples=1)
    t_slow, v_slow = make_step(rise_samples=8)
    fast = measure_step(t_fast, v_fast).rise_time
    slow = measure_step(t_slow, v_slow).rise_time
    assert slow > fast


def test_measure_step_requires_rising_edge():
    times = np.arange(100) * 1e-4
    with pytest.raises(MeasurementError):
        measure_step(times, np.full(100, 5.0))


def test_measure_step_needs_samples():
    with pytest.raises(MeasurementError):
        measure_step(np.arange(5.0), np.arange(5.0))


# --------------------------------------------------------------------- #
# Stability                                                              #
# --------------------------------------------------------------------- #


def test_stability_statistics():
    points = [
        StabilityPoint(time_hours=h, mean=90.0 + 0.05 * (-1) ** h, minimum=87.0, maximum=93.0)
        for h in range(10)
    ]
    stats = stability_statistics(points)
    assert stats.n_windows == 10
    assert stats.grand_mean == pytest.approx(90.0)
    assert stats.mean_fluctuation == pytest.approx(0.05)
    assert stats.extreme_span == pytest.approx(6.0)
    assert not stats.requires_recalibration


def test_stability_flags_large_drift():
    points = [
        StabilityPoint(0.0, 90.0, 89.0, 91.0),
        StabilityPoint(1.0, 92.0, 91.0, 93.0),
    ]
    assert stability_statistics(points).requires_recalibration


def test_stability_empty_raises():
    with pytest.raises(MeasurementError):
        stability_statistics([])


# --------------------------------------------------------------------- #
# Energy / activity                                                      #
# --------------------------------------------------------------------- #


def test_integrate_energy_trapezoid():
    times = np.linspace(0, 2, 201)
    watts = np.full(201, 50.0)
    assert integrate_energy(times, watts) == pytest.approx(100.0)


def test_integrate_energy_validation():
    with pytest.raises(MeasurementError):
        integrate_energy(np.array([0.0]), np.array([1.0]))
    with pytest.raises(MeasurementError):
        integrate_energy(np.arange(3.0), np.arange(2.0))


def test_detect_activity_finds_window():
    times = np.arange(0, 10, 0.01)
    watts = np.where((times > 2) & (times < 5), 100.0, 15.0)
    windows = detect_activity(times, watts)
    assert len(windows) == 1
    assert windows[0].start == pytest.approx(2.0, abs=0.05)
    assert windows[0].stop == pytest.approx(5.0, abs=0.05)
    assert windows[0].duration == pytest.approx(3.0, abs=0.1)


def test_detect_activity_min_duration_filters_blips():
    times = np.arange(0, 10, 0.01)
    watts = np.full(times.size, 15.0)
    watts[100:103] = 100.0  # 30 ms blip
    assert detect_activity(times, watts, min_duration=0.5) == []


def test_detect_activity_flat_trace():
    times = np.arange(0, 1, 0.01)
    assert detect_activity(times, np.full(times.size, 15.0)) == []


def test_count_dips_hysteresis_and_recovery():
    signal = np.array([10, 10, 2, 10, 10, 2, 2, 10, 2], dtype=float)
    # Last excursion never recovers: 2 dips.
    assert count_dips(signal, enter_below=5.0, exit_above=8.0) == 2


def test_count_dips_max_length():
    signal = np.array([10, 2, 2, 2, 2, 10], dtype=float)
    assert count_dips(signal, 5.0, 8.0, max_samples=2) == 0
    assert count_dips(signal, 5.0, 8.0, max_samples=10) == 1


def test_count_dips_band_validation():
    with pytest.raises(MeasurementError):
        count_dips(np.zeros(3), 5.0, 4.0)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 4000])
@pytest.mark.parametrize("size", [1, 3, 7, 31, 621])
def test_running_median_matches_brute_force(n, size):
    # Edge-padded odd windows, one np.median each; rounded values give
    # ties.  4000 samples of the 621 window span several partition blocks.
    values = np.random.default_rng(n + size).normal(size=n).round(1)
    half = size // 2
    padded = np.concatenate([values[:1].repeat(half), values, values[-1:].repeat(half)])
    want = [np.median(padded[i : i + size]) for i in range(n)]
    np.testing.assert_array_equal(running_median(values, size), want)


def test_running_median_needs_an_odd_window():
    for size in (0, 2, -3):
        with pytest.raises(MeasurementError):
            running_median(np.zeros(5), size)


# --------------------------------------------------------------------- #
# Pareto                                                                 #
# --------------------------------------------------------------------- #


def test_pareto_front_simple():
    xs = np.array([1.0, 2.0, 3.0, 2.5])
    ys = np.array([3.0, 2.0, 1.0, 2.5])
    front = pareto_front(xs, ys)
    assert set(front) == {0, 2, 3}  # (2, 2) is dominated by (2.5, 2.5)


def test_pareto_front_sorted_by_x_descending():
    xs = np.array([1.0, 3.0, 2.0])
    ys = np.array([3.0, 1.0, 2.0])
    front = pareto_front(xs, ys)
    assert list(xs[front]) == [3.0, 2.0, 1.0]


def test_pareto_front_single_dominating_point():
    xs = np.array([1.0, 5.0, 2.0])
    ys = np.array([1.0, 5.0, 2.0])
    assert list(pareto_front(xs, ys)) == [1]


def test_pareto_shape_mismatch():
    with pytest.raises(ValueError):
        pareto_front(np.arange(3.0), np.arange(4.0))


def test_dominates():
    assert dominates((2.0, 2.0), (1.0, 2.0))
    assert not dominates((1.0, 2.0), (2.0, 1.0))
    assert not dominates((1.0, 1.0), (1.0, 1.0))


def test_hypervolume():
    xs = np.array([2.0, 1.0])
    ys = np.array([1.0, 2.0])
    # Two boxes: 2x1 plus 1x(2-1).
    assert hypervolume_2d(xs, ys) == pytest.approx(3.0)
    assert hypervolume_2d(np.array([]), np.array([])) == 0.0
