"""Power-rail abstractions: the ground truth the sensors measure.

A rail is a pure function of time returning (volts, amps); purity lets the
two ADC channels of a sensor pair sample overlapping windows ~1 us apart
(see :class:`repro.hardware.baseboard.PowerRail`).  Stateful DUT models
(GPU, SSD) first *render* their behaviour into a :class:`PowerTrace`,
which :class:`TraceRail` then exposes for sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.errors import MeasurementError


@dataclass
class PowerTrace:
    """A rendered ground-truth power timeline for one rail.

    ``volts``/``amps`` are the rail state from ``times[k]`` until
    ``times[k+1]`` (sample-and-hold semantics).
    """

    times: np.ndarray
    volts: np.ndarray
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.volts = np.asarray(self.volts, dtype=float)
        self.amps = np.asarray(self.amps, dtype=float)
        if not (self.times.size == self.volts.size == self.amps.size):
            raise MeasurementError("trace arrays must have equal length")
        if self.times.size == 0:
            raise MeasurementError("trace must contain at least one point")
        if np.any(np.diff(self.times) < 0):
            raise MeasurementError("trace times must be non-decreasing")

    @property
    def watts(self) -> np.ndarray:
        return self.volts * self.amps

    def hold_index(self, times: np.ndarray) -> np.ndarray:
        """Index of the point whose state holds at each of ``times``.

        ``times`` must be a non-decreasing 1-D array.  The result equals
        ``clip(searchsorted(self.times, times, "right") - 1, 0, N - 1)``
        exactly, but only the slice of the trace between the first and
        last query is searched, so the cost follows the query block, not
        the trace length.
        """
        times = np.asarray(times, dtype=float)
        n = times.size
        if n == 0:
            return np.zeros(0, dtype=np.intp)
        if times.ndim != 1 or np.any(times[1:] < times[:-1]):
            raise MeasurementError("query times must be a non-decreasing 1-D array")
        lo, hi = np.searchsorted(self.times, (times[0], times[-1]), side="right")
        span = self.times[lo:hi]
        if span.size <= n:
            # Queries denser than the trace (a rail read at the ADC scan
            # rate): place each trace point among the queries, then count
            # the points at or before each query.
            first = np.searchsorted(times, span, side="left")
            idx = np.cumsum(np.bincount(first, minlength=n))
        else:
            idx = np.searchsorted(span, times, side="right")
        idx += lo - 1
        return np.clip(idx, 0, self.times.size - 1, out=idx)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def energy(self) -> float:
        """Exact energy of the sample-and-hold trace (J)."""
        if self.times.size < 2:
            return 0.0
        dts = np.diff(self.times)
        return float((self.watts[:-1] * dts).sum())

    def mean_power(self) -> float:
        if self.duration <= 0:
            raise MeasurementError("trace has zero duration")
        return self.energy() / self.duration

    def save(self, path) -> None:
        """Persist the trace as a compressed .npz archive.

        The paper's artifact releases its measurement datasets; this is
        the equivalent exchange format for simulated ground truth.
        """
        np.savez_compressed(path, times=self.times, volts=self.volts, amps=self.amps)

    @classmethod
    def load(cls, path) -> "PowerTrace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(path) as archive:
            return cls(
                times=archive["times"], volts=archive["volts"], amps=archive["amps"]
            )


class ConstantRail:
    """A rail at fixed voltage and current."""

    def __init__(self, volts: float, amps: float) -> None:
        self.volts = float(volts)
        self.amps = float(amps)

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        return np.full(n, self.volts), np.full(n, self.amps)


class FunctionRail:
    """A rail defined by a vectorised function ``t -> (volts, amps)``."""

    def __init__(self, fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]):
        self.fn = fn

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        times = start + dt * np.arange(first, first + n)
        volts, amps = self.fn(times)
        return (
            np.broadcast_to(np.asarray(volts, dtype=float), times.shape).copy(),
            np.broadcast_to(np.asarray(amps, dtype=float), times.shape).copy(),
        )


class TraceRail:
    """Expose a rendered :class:`PowerTrace` with sample-and-hold lookup.

    Before the first trace point the rail reads the first value; after the
    last point it holds the last value.
    """

    def __init__(self, trace: PowerTrace, offset: float = 0.0) -> None:
        self.trace = trace
        #: Simulated time at which the trace's t=0 occurs (lets a trace
        #: rendered on its own timeline be measured later in bench time).
        self.offset = float(offset)

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        times = start - self.offset + dt * np.arange(first, first + n)
        idx = self.trace.hold_index(times)
        return self.trace.volts[idx], self.trace.amps[idx]


class CabledRail:
    """A rail reached through a resistive cable, with optional remote sense.

    The sensor module sits at the supply end of the cable; the DUT draws
    its current at the far end.  Measuring the voltage at the module's
    input port therefore over-reads by ``I * R_cable`` — which is why the
    PowerSensor3 modules integrate a remote-sense connector that taps the
    voltage directly at the DUT (paper, Section III-A).
    """

    def __init__(
        self,
        inner,
        cable_resistance_ohms: float,
        remote_sense: bool = True,
    ) -> None:
        if cable_resistance_ohms < 0:
            raise MeasurementError("cable resistance cannot be negative")
        self.inner = inner
        self.cable_resistance_ohms = float(cable_resistance_ohms)
        self.remote_sense = bool(remote_sense)

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        volts_dut, amps = self.inner.sample_uniform(start, dt, n, first)
        if self.remote_sense:
            return volts_dut, amps  # sense wires tap the DUT directly
        return volts_dut + amps * self.cable_resistance_ohms, amps


class SegmentRail:
    """A rail whose power is scheduled as appended constant segments.

    Used by the auto-tuning harness: before each kernel trial a segment
    ``(start, stop, watts)`` is appended at the current simulated time,
    and the sensor samples whatever is scheduled.  Outside all segments
    the rail sits at the idle power.
    """

    def __init__(self, volts: float, idle_watts: float) -> None:
        self.volts = float(volts)
        self.idle_watts = float(idle_watts)
        self._starts: list[float] = []
        self._stops: list[float] = []
        self._watts: list[float] = []

    def schedule(self, start: float, stop: float, watts: float) -> None:
        if stop <= start:
            raise MeasurementError("segment must have positive duration")
        if self._starts and start < self._stops[-1]:
            raise MeasurementError("segments must be scheduled in time order")
        self._starts.append(float(start))
        self._stops.append(float(stop))
        self._watts.append(float(watts))

    def prune_before(self, time: float) -> None:
        """Drop fully elapsed segments to keep lookups O(log recent)."""
        keep = 0
        while keep < len(self._stops) and self._stops[keep] < time:
            keep += 1
        if keep:
            del self._starts[:keep], self._stops[:keep], self._watts[:keep]

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        times = start + dt * np.arange(first, first + n)
        watts = np.full(n, self.idle_watts)
        if self._starts:
            starts = np.asarray(self._starts)
            stops = np.asarray(self._stops)
            levels = np.asarray(self._watts)
            idx = np.searchsorted(starts, times, side="right") - 1
            idx_c = np.clip(idx, 0, starts.size - 1)
            inside = (idx >= 0) & (times < stops[idx_c])
            watts = np.where(inside, levels[idx_c], watts)
        volts = np.full(n, self.volts)
        return volts, watts / self.volts


class ScaledRail:
    """A rail derived from another by scaling voltage and/or current.

    Used e.g. to derive a 3.3 V auxiliary rail carrying a fixed fraction of
    a device's power from its main power model.
    """

    def __init__(self, inner, volt_scale: float = 1.0, amp_scale: float = 1.0):
        self.inner = inner
        self.volt_scale = float(volt_scale)
        self.amp_scale = float(amp_scale)

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        volts, amps = self.inner.sample_uniform(start, dt, n, first)
        return volts * self.volt_scale, amps * self.amp_scale


class SplitRail:
    """One of several parallel feeds of a device.

    A PCIe GPU draws from the slot (3.3 V and 12 V) and external 12 V
    connectors simultaneously; ``SplitRail`` carves a fixed share of a
    board trace's power into one feed at its own nominal voltage.
    """

    def __init__(self, trace: PowerTrace, share: float, volts: float,
                 droop_ohms: float = 0.0):
        if not 0.0 <= share <= 1.0:
            raise MeasurementError(f"share must be in [0, 1], got {share}")
        self.trace = trace
        self.share = float(share)
        self.nominal_volts = float(volts)
        self.droop_ohms = float(droop_ohms)

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        idx = self.trace.hold_index(start + dt * np.arange(first, first + n))
        if idx.size == 0:
            return np.zeros(0), np.zeros(0)
        # The feed arithmetic runs once per trace point the block spans,
        # then each time gathers its point's result.
        lo, hi = idx[0], idx[-1] + 1
        idx -= lo
        trace = self.trace
        watts = trace.volts[lo:hi] * trace.amps[lo:hi] * self.share
        # Solve u = V0 - R * i with i = p / u; one Newton step from u = V0
        # is plenty for the few-mOhm droops involved.
        volts = np.full(watts.size, self.nominal_volts)
        if self.droop_ohms > 0.0:
            amps0 = watts / volts
            volts = volts - self.droop_ohms * amps0
            volts = np.maximum(volts, 0.5 * self.nominal_volts)
        amps = watts / volts
        return volts[idx], amps[idx]
