"""Energy integration and power-trace feature extraction.

Used by the GPU case studies (Fig. 7): integrate energy over a window,
find where a kernel starts and stops from the power trace alone, and
extract features like the initial power spike, ramp, and idle-return time
that the paper's annotated traces highlight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MeasurementError


def integrate_energy(times: np.ndarray, watts: np.ndarray) -> float:
    """Trapezoid-rule energy (J) of a sampled power trace."""
    times = np.asarray(times, dtype=float)
    watts = np.asarray(watts, dtype=float)
    if times.size != watts.size:
        raise MeasurementError("times and watts must have equal length")
    if times.size < 2:
        raise MeasurementError("need at least two samples to integrate")
    return float(np.trapezoid(watts, times))


@dataclass(frozen=True)
class ActivityWindow:
    """A contiguous above-threshold region of a power trace."""

    start: float
    stop: float

    @property
    def duration(self) -> float:
        return self.stop - self.start


def detect_activity(
    times: np.ndarray,
    watts: np.ndarray,
    idle_watts: float | None = None,
    threshold_fraction: float = 0.25,
    min_duration: float = 0.0,
) -> list[ActivityWindow]:
    """Find regions where power rises clearly above idle.

    Args:
        times, watts: the sampled trace.
        idle_watts: idle level; estimated from the lowest decile if None.
        threshold_fraction: activity threshold as a fraction of the span
            between idle and peak power.
        min_duration: drop windows shorter than this (filters noise blips).
    """
    times = np.asarray(times, dtype=float)
    watts = np.asarray(watts, dtype=float)
    if watts.size == 0:
        return []
    if idle_watts is None:
        idle_watts = float(np.percentile(watts, 10))
    peak = float(watts.max())
    if peak <= idle_watts:
        return []
    threshold = idle_watts + threshold_fraction * (peak - idle_watts)
    active = watts > threshold
    edges = np.diff(active.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    stops = list(np.flatnonzero(edges == -1) + 1)
    if active[0]:
        starts.insert(0, 0)
    if active[-1]:
        stops.append(watts.size - 1)
    windows = [
        ActivityWindow(start=float(times[a]), stop=float(times[b]))
        for a, b in zip(starts, stops)
    ]
    return [w for w in windows if w.duration >= min_duration]


def count_dips(
    values: np.ndarray,
    enter_below: float,
    exit_above: float,
    max_samples: int | None = None,
) -> int:
    """Count short excursions below a level with hysteresis.

    A dip starts when the signal falls below ``enter_below`` and is counted
    once it *recovers* above ``exit_above``.  The dead band debounces
    sensor noise chattering around a single threshold; a trailing
    excursion that never recovers (the workload's falling edge) is not a
    dip; and excursions longer than ``max_samples`` (e.g. the clock-ramp
    or power-limit-drop phases of a GPU trace) are not dips either.
    """
    if exit_above < enter_below:
        raise MeasurementError("exit level must be >= entry level")
    dips = 0
    entered_at: int | None = None
    for i, value in enumerate(np.asarray(values, dtype=float)):
        if entered_at is None and value < enter_below:
            entered_at = i
        elif entered_at is not None and value > exit_above:
            if max_samples is None or (i - entered_at) <= max_samples:
                dips += 1
            entered_at = None
    return dips


@dataclass(frozen=True)
class TraceFeatures:
    """Headline features of a GPU workload power trace (Fig. 7 insets)."""

    idle_watts: float
    peak_watts: float
    launch_watts: float  # power level right at activity start
    initial_spike_watts: float  # peak within the first part of the activity
    steady_watts: float  # median power over the second half of the activity
    ramp_time: float  # from activity start to 95 % of steady level
    idle_return_time: float  # from activity stop back to near idle
    n_dips: int  # transient dips below 90 % of steady during activity


def running_median(values: np.ndarray, size: int) -> np.ndarray:
    """Median of the odd ``size`` samples centred on each sample.

    The trace is padded by repeating its end samples, so every window is
    full.  The window is odd, so each median is one of the inputs.  The
    windows are strided views, partitioned a block of rows at a time to
    bound the memory to ~8 MB.
    """
    if size < 1 or size % 2 == 0:
        raise MeasurementError(f"median window must be odd and positive, got {size}")
    values = np.asarray(values, dtype=float)
    out = np.empty(values.size)
    if not values.size:
        return out
    half = size // 2
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(values, half, mode="edge"), size
    )
    rows = max(1, (1 << 20) // size)
    for lo in range(0, values.size, rows):
        out[lo : lo + rows] = np.partition(windows[lo : lo + rows], half, axis=1)[:, half]
    return out


def extract_features(
    times: np.ndarray,
    watts: np.ndarray,
    window: ActivityWindow,
    spike_window: float = 0.2,
) -> TraceFeatures:
    """Extract Fig. 7-style features for one activity window."""
    times = np.asarray(times, dtype=float)
    watts = np.asarray(watts, dtype=float)
    before = watts[times < window.start]
    idle = float(np.median(before)) if before.size else float(np.percentile(watts, 5))
    in_win = (times >= window.start) & (times <= window.stop)
    t_win = times[in_win]
    p_win = watts[in_win]
    if p_win.size == 0:
        raise MeasurementError("activity window contains no samples")
    peak = float(p_win.max())
    spike_mask = t_win <= window.start + spike_window
    spike = float(p_win[spike_mask].max()) if spike_mask.any() else peak
    second_half = p_win[t_win >= (window.start + window.stop) / 2]
    steady = float(np.median(second_half)) if second_half.size else peak

    # Ramp: first time power sustains 95 % of steady.
    at_steady = np.flatnonzero(p_win >= 0.95 * steady)
    ramp_time = float(t_win[at_steady[0]] - window.start) if at_steady.size else 0.0

    # Idle return: after the window, time until within 10 % of idle span.
    after = times > window.stop
    t_after = times[after]
    p_after = watts[after]
    idle_return = 0.0
    if t_after.size:
        near_idle = p_after <= idle + 0.1 * (steady - idle)
        hit = np.flatnonzero(near_idle)
        idle_return = float(t_after[hit[0]] - window.stop) if hit.size else float("inf")

    # Dips are short excursions below the *local* envelope: detrend with a
    # ~31 ms median filter (which tracks ramps and limit-drop phases but
    # not millisecond dips), then count recovered excursions with a
    # hysteresis band well above the sensor noise.  The last 50 ms are
    # excluded so the workload's falling edge is not miscounted.
    dt_sample = float(np.median(np.diff(t_win))) if t_win.size > 1 else 1.0
    size = max(int(0.031 / dt_sample) | 1, 3)
    baseline = running_median(p_win, size)
    detrended = p_win - baseline
    trimmed = detrended[t_win <= window.stop - 0.05]
    n_dips = count_dips(
        trimmed,
        enter_below=-0.08 * steady,
        exit_above=-0.03 * steady,
        max_samples=max(int(0.05 / dt_sample), 1),
    )

    launch_mask = t_win <= window.start + 0.02
    launch = float(p_win[launch_mask].mean()) if launch_mask.any() else float(p_win[0])
    return TraceFeatures(
        idle_watts=idle,
        peak_watts=peak,
        launch_watts=launch,
        initial_spike_watts=spike,
        steady_watts=steady,
        ramp_time=ramp_time,
        idle_return_time=idle_return,
        n_dips=n_dips,
    )
