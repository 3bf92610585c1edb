"""Band-limited and white Gaussian noise sources.

The PowerSensor3 sensor front-ends are band-limited analog parts: the
MLX91221 Hall current sensor has a 300 kHz bandwidth and the ACPL-C87B
voltage sensor a 100 kHz bandwidth.  The firmware's ADC takes its six
averaged sub-samples only ~1 us apart, i.e. *within* the correlation time of
that noise, so the average reduces noise by less than sqrt(6).  Modelling
the noise as an Ornstein-Uhlenbeck (OU) process with the datasheet
bandwidth reproduces exactly this effect, which is what reconciles the
datasheet noise numbers with the measured Table II statistics in the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.rng import RngStream


class WhiteNoise:
    """IID Gaussian noise with fixed standard deviation."""

    def __init__(self, sigma: float, rng: RngStream) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = float(sigma)
        self._rng = rng

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Noise values at the given sample times (times are ignored)."""
        times = np.asarray(times, dtype=float)
        if self.sigma == 0.0:
            return np.zeros_like(times)
        return self._rng.normal(0.0, self.sigma, size=times.shape)


class OrnsteinUhlenbeckNoise:
    """Stationary Gaussian noise with exponential autocorrelation.

    The process has standard deviation ``sigma`` and autocorrelation
    ``exp(-|dt| / tau)`` where ``tau = 1 / (2 * pi * bandwidth)``, matching
    a single-pole low-pass filtered white source of the given -3 dB
    bandwidth.

    The generator is *stateful*: successive calls to :meth:`sample` continue
    the process from the previous call's last value and time, so a stream
    can be produced chunk by chunk without breaking correlations.
    """

    def __init__(self, sigma: float, bandwidth_hz: float, rng: RngStream) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth_hz}")
        self.sigma = float(sigma)
        self.bandwidth_hz = float(bandwidth_hz)
        self.tau = 1.0 / (2.0 * math.pi * self.bandwidth_hz)
        self._rng = rng
        self._last_time: float | None = None
        self._last_value = 0.0

    def reset(self) -> None:
        """Forget history; the next sample is drawn from the stationary law."""
        self._last_time = None
        self._last_value = 0.0

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Noise values at strictly non-decreasing sample times (seconds)."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be a 1-D array")
        n = times.size
        if n == 0:
            return np.zeros(0)
        if self.sigma == 0.0:
            self._last_time = float(times[-1])
            self._last_value = 0.0
            return np.zeros(n)

        out = np.empty(n)
        prev_t = self._last_time
        prev_x = self._last_value

        # Decay factor between consecutive requested times.
        if prev_t is None:
            first_rho = 0.0  # draw from the stationary distribution
            prev_t = float(times[0])
        else:
            first_rho = math.exp(-max(times[0] - prev_t, 0.0) / self.tau)
        dts = np.diff(times)
        if np.any(dts < 0):
            raise ValueError("times must be non-decreasing")
        rhos = np.exp(-dts / self.tau)
        rhos = np.concatenate(([first_rho], rhos))
        innov_sigma = self.sigma * np.sqrt(np.maximum(1.0 - rhos**2, 0.0))
        innovations = self._rng.normal(0.0, 1.0, size=n) * innov_sigma

        # Sequential recurrence for arbitrary time grids; the sensors' uniform
        # ADC scan grid uses the vectorised sample_uniform below.
        x = prev_x
        for i in range(n):
            x = rhos[i] * x + innovations[i]
            out[i] = x

        self._last_time = float(times[-1])
        self._last_value = float(out[-1])
        return out

    def sample_uniform(self, start: float, dt: float, n: int) -> np.ndarray:
        """Vectorised sampling on a uniform grid ``start + i*dt``.

        Equivalent in distribution to :meth:`sample` on the same grid.  With
        a constant grid step, rho is constant and the recurrence is an AR(1)
        filter, which :func:`_ar1_filter` evaluates in one ``lfilter`` pass.
        """
        if n <= 0:
            return np.zeros(0)
        if self.sigma == 0.0:
            self._last_time = start + (n - 1) * dt
            self._last_value = 0.0
            return np.zeros(n)
        rho = math.exp(-dt / self.tau) if dt > 0 else 1.0
        if self._last_time is None:
            x0 = self._rng.normal(0.0, self.sigma)
            gap_rho = None
        else:
            gap = max(start - self._last_time, 0.0)
            gap_rho = math.exp(-gap / self.tau)
            x0 = gap_rho * self._last_value + self._rng.normal(
                0.0, self.sigma * math.sqrt(max(1.0 - gap_rho**2, 0.0))
            )
        innov_sigma = self.sigma * math.sqrt(max(1.0 - rho**2, 0.0))
        innovations = self._rng.normal(0.0, 1.0, size=n) * innov_sigma
        innovations[0] = 0.0
        out = _ar1_filter(rho, x0, innovations)
        self._last_time = start + (n - 1) * dt
        self._last_value = float(out[-1])
        return out


def _ar1_filter(rho: float, x0: float, innovations: np.ndarray) -> np.ndarray:
    """Evaluate x[i] = rho * x[i-1] + innovations[i], x[0] = x0, vectorised.

    The recurrence is a single-pole IIR filter, so ``scipy.signal.lfilter``
    evaluates it exactly in one C pass — no block-size/precision trade-off
    like the closed-form cumulative-sum formulation needs, and ~2 orders of
    magnitude faster than a Python loop for the short chunk sizes the
    firmware simulation uses.
    """
    from scipy.signal import lfilter

    n = innovations.size
    if n == 0:
        return np.empty(0)
    driven = np.array(innovations, dtype=float, copy=True)
    driven[0] = x0  # the first output is x0 exactly; innovations[0] is unused
    out = lfilter([1.0], [1.0, -rho], driven)
    return out
