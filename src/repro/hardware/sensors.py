"""Analog transducer models: Hall current sensor and isolated voltage sensor.

Current sensing models the Melexis MLX91221 family: a ratiometric Hall
sensor whose output sits at Vdd/2 for zero current and moves by a fixed
sensitivity (V/A) — the differential Hall arrangement makes it insensitive
to uniform external magnetic fields, which we model by *not* coupling any
environmental field term (PowerSensor2's open-loop sensors needed one).

Voltage sensing models the Broadcom ACPL-C87B: an optically isolated
amplifier behind a resistive divider, reduced here to a single
volts-per-volt gain to the ADC pin.

Both transducers add band-limited Gaussian noise (Ornstein-Uhlenbeck, see
:mod:`repro.common.noise`) at their datasheet bandwidth, plus static
production errors (offset for the Hall part, gain for the voltage path)
that the one-time calibration procedure of :mod:`repro.calibration`
estimates and corrects.
"""

from __future__ import annotations

import numpy as np

from repro.common.noise import OrnsteinUhlenbeckNoise
from repro.common.rng import RngStream

#: Datasheet -3 dB *signal* bandwidths (paper, Section III-A).  At a 20 kHz
#: output rate the 50 us sample interval — not these — limits the observable
#: step response, so the signal path is not separately filtered.
CURRENT_SENSOR_BANDWIDTH_HZ = 300_000.0
VOLTAGE_SENSOR_BANDWIDTH_HZ = 100_000.0

#: Correlation bandwidths of the transducers' *noise*.  The Hall sensor's
#: noise spectrum is dominated by its low-frequency region: with the
#: firmware's six sub-samples spaced one ADC scan (8.33 us) apart, a
#: 23.4 kHz OU correlation bandwidth makes the average reduce the 115 mA rms
#: datasheet noise by sqrt(3.67) rather than sqrt(6) — which is exactly what
#: reconciles the datasheet figure with the 0.72 W rms the paper measures at
#: 20 kHz (Table II).  Consecutive 50 us output samples remain effectively
#: independent, preserving the table's sqrt(N) block-averaging column.
CURRENT_NOISE_BANDWIDTH_HZ = 23_400.0
VOLTAGE_NOISE_BANDWIDTH_HZ = 100_000.0

#: Scans between the Hall drift's knots.  The drift is evaluated exactly at
#: scan indices that are multiples of this, counted from index 0 of the
#: scan grid, and interpolated linearly in between.  On the 8.33 us ADC
#: scan grid the knots are 34 ms apart, against drift periods of 6 hours
#: and more, so the interpolation error stays below 1e-12 A.
DRIFT_KNOT_SCANS = 4096


def _clip(v: np.ndarray, vdd: float) -> np.ndarray:
    """Clip a sensor output to the supply rails ``[0, vdd]``, in place."""
    np.maximum(v, 0.0, out=v)
    return np.minimum(v, vdd, out=v)


class ExternalField:
    """An ambient magnetic field at the sensor's location, in millitesla.

    Servers are magnetically noisy (fan motors, VRM inductors, neighbouring
    power cables).  A differential Hall arrangement (MLX91221, used by
    PowerSensor3) rejects a *uniform* external field almost entirely, while
    the single-ended open-loop sensors of earlier tools couple it straight
    into the current reading — one of the improvements the paper lists over
    PowerSensor2.  The field is a sum of a static component, mains-frequency
    ripple, and scheduled steps (e.g. a fan spinning up).
    """

    def __init__(
        self,
        static_mt: float = 0.0,
        ripple_mt: float = 0.0,
        ripple_hz: float = 50.0,
    ) -> None:
        self.static_mt = float(static_mt)
        self.ripple_mt = float(ripple_mt)
        self.ripple_hz = float(ripple_hz)
        self._steps: list[tuple[float, float]] = []  # (time, new level)

    def add_step(self, at_time: float, level_mt: float) -> None:
        """Schedule the static component to change at a given time."""
        self._steps.append((float(at_time), float(level_mt)))
        self._steps.sort()

    def at(self, times: np.ndarray) -> np.ndarray:
        """Field strength (mT) at the given times."""
        times = np.asarray(times, dtype=float)
        field = np.full(times.shape, self.static_mt)
        for at_time, level in self._steps:
            field = np.where(times >= at_time, level, field)
        if self.ripple_mt:
            field = field + self.ripple_mt * np.sin(
                2 * np.pi * self.ripple_hz * times
            )
        return field


class _DriftModel:
    """Slow thermal drift of the Hall offset.

    Drift is a deterministic function of time (ambient temperature modelled
    as a small diurnal sinusoid) plus a very slow bounded random component.
    It is evaluated analytically, so 50-hour stability experiments do not
    need to integrate anything between sample windows.  On a scan grid it
    is evaluated at knots fixed by scan index (:meth:`offset_on_grid`), so
    the value at a scan depends only on its index, never on how a stream
    is split into reads.
    """

    def __init__(self, tempco_a_per_k: float, rng: RngStream) -> None:
        self.tempco_a_per_k = tempco_a_per_k
        # Diurnal ambient temperature swing amplitude (kelvin) and phase;
        # a lab drifts a few kelvin over a 50-hour run.
        self.swing_k = float(rng.uniform(1.5, 3.5))
        self.phase = float(rng.uniform(0.0, 2 * np.pi))
        # Slow wander: a few very low frequency sinusoids stand in for a
        # bounded random walk while staying analytic in t.
        self.wander_amps = rng.normal(0.0, 0.15, size=3) * tempco_a_per_k
        self.wander_freqs = rng.uniform(1.0, 4.0, size=3) / 86400.0  # per second
        # (key, knots, values) of the last grid span, keyed by (start, dt,
        # first knot, last knot): a read of a few hundred scans shares its
        # knots with the reads around it.
        self._knots: tuple = (None, None, None)

    def offset_at(self, t: float | np.ndarray):
        day = 2 * np.pi / 86400.0
        temp = self.swing_k * np.sin(day * np.asarray(t, dtype=float) + self.phase)
        drift = self.tempco_a_per_k * temp
        for amp, freq in zip(self.wander_amps, self.wander_freqs):
            drift = drift + amp * np.sin(2 * np.pi * freq * np.asarray(t, dtype=float))
        return drift

    def offset_on_grid(self, start: float, dt: float, first: int, n: int) -> np.ndarray:
        """Drift at ``start + k*dt`` for ``k = first..first+n-1``.

        :meth:`offset_at` is evaluated only at the knots, the indices ``k``
        that are multiples of :data:`DRIFT_KNOT_SCANS`, and each scan is
        interpolated linearly between the two knots around it.  The knot
        values of the last span are kept, so a run of short reads
        evaluates each knot once.
        """
        lo = first // DRIFT_KNOT_SCANS * DRIFT_KNOT_SCANS
        hi = (first + n + DRIFT_KNOT_SCANS - 2) // DRIFT_KNOT_SCANS * DRIFT_KNOT_SCANS
        key = (start, dt, lo, hi)
        cached, knots, values = self._knots
        if key != cached:
            knots = np.arange(lo, hi + 1, DRIFT_KNOT_SCANS)
            values = self.offset_at(start + dt * knots)
            self._knots = (key, knots, values)
        return np.interp(np.arange(first, first + n, dtype=float), knots, values)


class CurrentSensor:
    """MLX91221-style ratiometric Hall current sensor.

    Output voltage: ``vdd/2 + sensitivity * (i + offset + drift(t)) + noise``
    clipped to the supply rails.
    """

    #: Amperes of reading error per millitesla of uniform external field.
    #: The differential arrangement rejects uniform fields almost entirely;
    #: single-ended open-loop sensors (PowerSensor2 era) couple strongly.
    DIFFERENTIAL_FIELD_COUPLING_A_PER_MT = 0.002

    def __init__(
        self,
        sensitivity_v_per_a: float,
        noise_rms_a: float,
        rng: RngStream,
        vdd: float = 3.3,
        offset_a: float = 0.0,
        nonlinearity: float = 0.0,
        tempco_a_per_k: float = 2e-3,
        field_coupling_a_per_mt: float | None = None,
        external_field: ExternalField | None = None,
        noise_bandwidth_hz: float = CURRENT_NOISE_BANDWIDTH_HZ,
    ) -> None:
        if sensitivity_v_per_a <= 0:
            raise ValueError("sensitivity must be positive")
        self.sensitivity = float(sensitivity_v_per_a)
        self.vdd = float(vdd)
        self.offset_a = float(offset_a)
        self.nonlinearity = float(nonlinearity)
        self.noise_rms_a = float(noise_rms_a)
        self.field_coupling_a_per_mt = (
            self.DIFFERENTIAL_FIELD_COUPLING_A_PER_MT
            if field_coupling_a_per_mt is None
            else float(field_coupling_a_per_mt)
        )
        self.external_field = external_field
        self._noise = OrnsteinUhlenbeckNoise(
            sigma=noise_rms_a * self.sensitivity,
            bandwidth_hz=noise_bandwidth_hz,
            rng=rng.child("noise"),
        )
        self._drift = _DriftModel(tempco_a_per_k, rng.child("drift"))

    @property
    def zero_current_voltage(self) -> float:
        return self.vdd / 2.0

    def transduce_uniform(
        self, currents_a: np.ndarray, start: float, dt: float, first: int = 0
    ) -> np.ndarray:
        """Analog output voltages for true currents at ``start + k*dt``, ``k >= first``."""
        currents_a = np.asarray(currents_a, dtype=float)
        n = currents_a.size
        v = currents_a + self.offset_a
        v += self._drift.offset_on_grid(start, dt, first, n)
        cubic = currents_a**3
        cubic *= self.nonlinearity
        v += cubic
        if self.external_field is not None and self.field_coupling_a_per_mt:
            times = start + dt * np.arange(first, first + n)
            v += self.field_coupling_a_per_mt * self.external_field.at(times)
        v *= self.sensitivity
        v += self.zero_current_voltage
        v += self._noise.sample_uniform(start, dt, n, first)
        return _clip(v, self.vdd)


class VoltageSensor:
    """ACPL-C87B-style isolated voltage sensor behind a resistive divider.

    Output voltage: ``u * gain * (1 + gain_error) + noise`` clipped to the
    ADC supply.  ``gain`` maps the module's full-scale input voltage onto
    the ADC range.
    """

    def __init__(
        self,
        gain_v_per_v: float,
        noise_rms_v_input: float,
        rng: RngStream,
        vdd: float = 3.3,
        gain_error: float = 0.0,
    ) -> None:
        if gain_v_per_v <= 0:
            raise ValueError("gain must be positive")
        self.gain = float(gain_v_per_v)
        self.vdd = float(vdd)
        self.gain_error = float(gain_error)
        self.noise_rms_v_input = float(noise_rms_v_input)
        self._noise = OrnsteinUhlenbeckNoise(
            sigma=noise_rms_v_input * self.gain,
            bandwidth_hz=VOLTAGE_NOISE_BANDWIDTH_HZ,
            rng=rng.child("noise"),
        )

    def transduce_uniform(
        self, volts_in: np.ndarray, start: float, dt: float, first: int = 0
    ) -> np.ndarray:
        """Analog output voltages for input voltages at ``start + k*dt``, ``k >= first``."""
        volts_in = np.asarray(volts_in, dtype=float)
        v = volts_in * self.gain
        v *= 1.0 + self.gain_error
        v += self._noise.sample_uniform(start, dt, volts_in.size, first)
        return _clip(v, self.vdd)
