"""Bench instruments of the paper's Fig. 3 measurement setup.

A laboratory power supply (Keysight N6705B in the paper) sources the rail,
an electronic load (Kniel E.Last) draws a programmable current with finite
slew rate and optional square-wave modulation, and two digital multimeters
(Fluke 177/77) read the true voltage at the sensor and current through the
load.  In simulation the multimeters are exact by construction — they *are*
the ground truth the accuracy experiments compare the sensor against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import MeasurementError


@dataclass
class LabSupply:
    """A regulated voltage source with finite output impedance."""

    setpoint_volts: float
    source_impedance_ohms: float = 0.005
    enabled: bool = True

    def voltage_under_load(self, amps: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return np.zeros_like(np.asarray(amps, dtype=float))
        drop = np.multiply(self.source_impedance_ohms, amps, dtype=float)
        return np.subtract(self.setpoint_volts, drop, out=drop)


@dataclass
class _Step:
    time: float
    amps: float


class ElectronicLoad:
    """Programmable constant-current load with finite slew rate.

    The current follows a step schedule; each transition ramps linearly at
    ``slew_a_per_us``.  :meth:`program_square` builds the 100 Hz square
    modulation used for the paper's step-response measurement (Fig. 5).
    """

    def __init__(self, slew_a_per_us: float = 2.0) -> None:
        if slew_a_per_us <= 0:
            raise MeasurementError("slew rate must be positive")
        self.slew_a_per_s = slew_a_per_us * 1e6
        self._steps: list[_Step] = [_Step(0.0, 0.0)]
        # (steps, times, amps) of the last breakpoints built.
        self._breakpoint_arrays: tuple = (0, None, None)

    def set_current(self, amps: float, at_time: float = 0.0) -> None:
        """Schedule a setpoint change (times must be scheduled in order)."""
        if self._steps and at_time < self._steps[-1].time:
            raise MeasurementError("load steps must be scheduled in time order")
        self._steps.append(_Step(float(at_time), float(amps)))

    def program_square(
        self,
        low_amps: float,
        high_amps: float,
        frequency_hz: float,
        start: float,
        cycles: int,
    ) -> None:
        """Schedule a square wave: high for the first half of each period."""
        period = 1.0 / frequency_hz
        for k in range(cycles):
            self.set_current(high_amps, start + k * period)
            self.set_current(low_amps, start + (k + 0.5) * period)

    def _breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-linear (time, current) breakpoints with slew ramps.

        Built once per schedule.  :meth:`set_current` only appends, so
        the number of steps identifies the schedule and keys the arrays,
        even while a producer thread reads them.  The arrays are shared,
        so they are read-only.
        """
        n_steps = len(self._steps)
        built, bp_t, bp_i = self._breakpoint_arrays
        if built == n_steps:
            return bp_t, bp_i
        steps = self._steps[:n_steps]
        times = [steps[0].time]
        amps = [steps[0].amps]
        for step in steps[1:]:
            prev_i = amps[-1]
            ramp = abs(step.amps - prev_i) / self.slew_a_per_s
            t0 = max(step.time, times[-1])
            times.extend([t0, t0 + ramp])
            amps.extend([prev_i, step.amps])
        bp_t, bp_i = np.asarray(times), np.asarray(amps)
        bp_t.flags.writeable = bp_i.flags.writeable = False
        self._breakpoint_arrays = (n_steps, bp_t, bp_i)
        return bp_t, bp_i

    def current_at(self, times: np.ndarray) -> np.ndarray:
        bp_t, bp_i = self._breakpoints()
        return np.interp(np.asarray(times, dtype=float), bp_t, bp_i)


class LoadedSupplyRail:
    """The bench rail: a supply sourcing an electronic load.

    This is what the sensor module under test is wired across in the
    accuracy, averaging, stability, and step-response experiments.
    """

    def __init__(self, supply: LabSupply, load: ElectronicLoad) -> None:
        self.supply = supply
        self.load = load

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        times = np.arange(first, first + n) * dt
        times += start
        amps = self.load.current_at(times)
        volts = self.supply.voltage_under_load(amps)
        return volts, amps


@dataclass
class DigitalMultimeter:
    """Ground-truth meter: averages the true rail state over a window.

    The simulation's stand-in for the Fluke meters — exact by construction,
    with an optional resolution to emulate display rounding.
    """

    resolution: float = 0.0
    readings: list[float] = field(default_factory=list)

    def read_voltage(self, rail, at: float, window: float = 0.01, n: int = 100) -> float:
        volts, _ = rail.sample_uniform(at, window / n, n)
        return self._round(float(np.mean(volts)))

    def read_current(self, rail, at: float, window: float = 0.01, n: int = 100) -> float:
        _, amps = rail.sample_uniform(at, window / n, n)
        return self._round(float(np.mean(amps)))

    def _round(self, value: float) -> float:
        if self.resolution > 0:
            value = round(value / self.resolution) * self.resolution
        self.readings.append(value)
        return value
