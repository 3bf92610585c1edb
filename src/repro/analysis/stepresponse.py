"""Step-response metrics (the paper's Fig. 5).

The electronic load steps between two currents; the sensor's observed
response characterises how well PowerSensor3 resolves power transients
such as GPU kernel starts.  At 20 kHz the sample interval (50 us), not the
300 kHz analog bandwidth, dominates the observed rise time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MeasurementError


@dataclass(frozen=True)
class StepMetrics:
    """Characterisation of one observed step."""

    edge_time: float  # time of 50 % crossing
    rise_time: float  # 10 % -> 90 % duration
    settle_time: float  # time from edge until within band of final value
    low_level: float
    high_level: float

    @property
    def amplitude(self) -> float:
        return self.high_level - self.low_level


def _crossing_time(times: np.ndarray, values: np.ndarray, level: float) -> float:
    """First time the signal crosses ``level`` upward, linearly interpolated."""
    above = values >= level
    idx = np.flatnonzero(~above[:-1] & above[1:])
    if idx.size == 0:
        raise MeasurementError(f"signal never crosses level {level:.3f}")
    i = int(idx[0])
    v0, v1 = values[i], values[i + 1]
    if v1 == v0:
        return float(times[i + 1])
    frac = (level - v0) / (v1 - v0)
    return float(times[i] + frac * (times[i + 1] - times[i]))


def measure_step(
    times: np.ndarray,
    values: np.ndarray,
    settle_band: float = 0.05,
) -> StepMetrics:
    """Measure a single rising step in a (time, value) capture.

    Low/high levels are estimated from the first and last 10 % of the
    capture, so the window should contain exactly one rising edge with
    settled plateaus on both sides.

    Raises:
        MeasurementError: if no rising edge is present.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 10:
        raise MeasurementError("need at least 10 samples to measure a step")
    n_edge = max(times.size // 10, 2)
    low = float(np.median(values[:n_edge]))
    high = float(np.median(values[-n_edge:]))
    if high <= low:
        raise MeasurementError("capture does not contain a rising step")
    amplitude = high - low
    t10 = _crossing_time(times, values, low + 0.1 * amplitude)
    t50 = _crossing_time(times, values, low + 0.5 * amplitude)
    t90 = _crossing_time(times, values, low + 0.9 * amplitude)

    inside = np.abs(values - high) <= settle_band * amplitude
    settle_time = 0.0
    # Last sample outside the band after the edge determines settling.
    after_edge = times >= t50
    outside_after = np.flatnonzero(after_edge & ~inside)
    if outside_after.size:
        last_outside = int(outside_after[-1])
        if last_outside + 1 < times.size:
            settle_time = float(times[last_outside + 1] - t50)
        else:
            raise MeasurementError("signal does not settle within the capture")
    return StepMetrics(
        edge_time=t50,
        rise_time=t90 - t10,
        settle_time=max(settle_time, 0.0),
        low_level=low,
        high_level=high,
    )
