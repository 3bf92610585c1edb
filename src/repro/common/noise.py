"""Band-limited Gaussian noise for the sensor front-ends.

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


class OrnsteinUhlenbeckNoise:
    """Stationary Gaussian noise with exponential autocorrelation.

    The process has standard deviation ``sigma`` and autocorrelation
    ``exp(-|dt| / tau)`` where ``tau = 1 / (2 * pi * bandwidth)``, matching
    a single-pole low-pass filtered white source of the given -3 dB
    bandwidth.

    The generator is *stateful*: successive calls to :meth:`sample_uniform`
    continue the process from the previous call's last value and time, so
    a stream can be produced chunk by chunk without breaking correlations.
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
        # (start, dt, next index) of the uniform grid the last call ended on.
        self._grid: tuple[float, float, int] | None = None

    def reset(self) -> None:
        """Forget history; the next sample is drawn from the stationary law."""
        self._last_time = None
        self._last_value = 0.0
        self._grid = None

    def _decay(self, gap: float) -> float:
        return math.exp(-max(gap, 0.0) / self.tau)

    def _innovation_sigma(self, rho: float) -> float:
        return self.sigma * math.sqrt(max(1.0 - rho * rho, 0.0))

    def sample_uniform(
        self, start: float, dt: float, n: int, first: int = 0
    ) -> np.ndarray:
        """Vectorised sampling on the grid ``start + k*dt``, ``k = first..first+n-1``.

        Each call draws exactly ``n`` normals.  The first drives the
        transition from the carried state; when the call continues the
        previous call's grid (same ``start`` and ``dt``, ``first`` one past
        its last index) that transition uses the grid's own decay, so any
        split of a grid into calls yields the same values bit for bit.
        With a constant grid step the recurrence is an AR(1) filter, which
        :func:`_ar1_filter` evaluates in one ``lfilter`` pass.
        """
        if n <= 0:
            return np.zeros(0)
        end = first + n
        continues = self._grid == (start, dt, first)
        self._grid = (start, dt, end)
        last_time = start + dt * (end - 1)
        if self.sigma == 0.0:
            self._last_time = last_time
            self._last_value = 0.0
            return np.zeros(n)
        rho = math.exp(-dt / self.tau) if dt > 0 else 1.0
        if self._last_time is None:
            x_rho = 0.0  # no history: draw from the stationary law
        elif continues:
            x_rho = rho
        else:
            x_rho = self._decay(start + dt * first - self._last_time)
        z = self._rng.generator.standard_normal(n)
        x0 = x_rho * self._last_value + z[0] * self._innovation_sigma(x_rho)
        z *= self._innovation_sigma(rho)
        out = _ar1_filter(rho, x0, z)
        self._last_time = last_time
        self._last_value = float(out[-1])
        return out


def _ar1_filter(rho: float, x0: float, innovations: np.ndarray) -> np.ndarray:
    """Evaluate x[i] = rho * x[i-1] + innovations[i], x[0] = x0, vectorised.

    ``innovations[0]`` is unused: it is overwritten with ``x0`` in place,
    so pass an array the caller owns.  The recurrence is a single-pole IIR
    filter, so ``scipy.signal.lfilter`` evaluates it exactly in one C pass
    — no block-size/precision trade-off like the closed-form
    cumulative-sum formulation needs, and ~2 orders of magnitude faster
    than a Python loop for the short chunk sizes the firmware simulation
    uses.
    """
    from scipy.signal import lfilter

    if innovations.size == 0:
        return np.empty(0)
    innovations[0] = x0
    return lfilter([1.0], [1.0, -rho], innovations)
