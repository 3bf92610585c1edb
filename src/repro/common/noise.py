"""Band-limited Gaussian noise for the sensor front-ends.

The PowerSensor3 sensor front-ends are band-limited analog parts: the
MLX91221 Hall current sensor has a 300 kHz bandwidth and the ACPL-C87B
voltage sensor a 100 kHz bandwidth.  The firmware's ADC takes its six
averaged sub-samples only ~1 us apart, i.e. *within* the correlation time of
that noise, so the average reduces noise by less than sqrt(6).  Modelling
the noise as an Ornstein-Uhlenbeck (OU) process with the datasheet
bandwidth reproduces exactly this effect, which is what reconciles the
datasheet noise numbers with the measured Table II statistics in the paper.

On a uniform grid the OU process is the AR(1) recurrence
``x[i] = rho * x[i-1] + s * z[i]``, which NumPy evaluates in *tiles* of
``T`` scans anchored at the multiples of ``T`` in the grid index, counted
from index 0.  With ``h = T/2``, scan ``k`` of the tile that starts at
index ``a`` is

    x[a+k] = rho**(k-h) * (rho**h * x[a] + Q[k]),
    Q[k] = sum(rho**(h-j) * s * z[a+j] for j = 1..k),

where ``Q`` is a sequential cumulative sum.  A tile's start ``x[a]`` is
the recurrence applied to the previous tile's last value; a grid that
starts fresh at scan ``k0`` of a tile uses ``rho**(h-k0) * x[a+k0]`` in
place of ``rho**h * x[a]``.  ``T`` is the largest power of two, at most
:data:`MAX_TILE_SCANS`, for which every scale ``rho**j``, ``|j| <= h``,
lies within ``2**±SCALE_EXPONENT_BITS``: 2**53 short of the largest
double, so a tile's sums stay finite for noise up to ~1e15 in its unit.
On the 8.33 us ADC scan grid that is 1024 scans for the Hall sensor's
noise (``rho`` ~0.294) and 256 for the voltage sensor's (``rho``
~0.0053).  A ``rho`` below ``2**-SCALE_EXPONENT_BITS`` weighs the
previous value by less than that and is evaluated as white noise.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from repro.common.rng import RngStream

#: Every tile scale ``rho**j`` lies within ``2**±SCALE_EXPONENT_BITS``.
SCALE_EXPONENT_BITS = 970
#: The longest tile, reached when ``rho`` is close to 1.
MAX_TILE_SCANS = 1 << 12
#: A call over at most this many tiles is evaluated in 1-D, a longer one in 2-D.
SEGMENT_TILES = 4
#: Above this many tiles, absorbed tile starts are computed at once.
CHAIN_LOOP_TILES = 48


class NoiseTiles(NamedTuple):
    """A grid's tile length ``T`` and scales, for :data:`SEGMENT_TILES` tiles in a row."""

    scans: int
    #: ``rho**(k-h)`` at ``k mod T``: from a tile's sums to its values.
    up: np.ndarray
    #: ``rho**(h-k)`` at ``k mod T``: from a value to a tile's sums.
    down: np.ndarray
    #: ``s * rho**(h-k)``, zero at a tile's start: from normals to its sums.
    weights: np.ndarray


def tile_scans(rho: float) -> int:
    """The tile length ``T`` for an AR(1) coefficient ``rho``; 0 for white noise."""
    bits = -math.log2(rho) if rho > 0.0 else math.inf
    half = MAX_TILE_SCANS // 2
    while half and half * bits > SCALE_EXPONENT_BITS:
        half //= 2
    return 2 * half


@functools.lru_cache(maxsize=64)
def noise_tiles(rho: float, innovation: float) -> NoiseTiles | None:
    """The tiles for ``rho`` and innovation sigma, or None for white noise."""
    size = tile_scans(rho)
    if not size:
        return None
    k = np.arange(size, dtype=float) - size // 2
    up, down = np.tile(rho**k, SEGMENT_TILES), np.tile(rho**-k, SEGMENT_TILES)
    weights = innovation * down
    weights[::size] = 0.0
    for table in (up, down, weights):
        table.flags.writeable = False  # shared by every caller
    return NoiseTiles(size, up, down, weights)


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
        # (rho**h * tile start, running prefix Q) of the tile it ended in.
        self._tile = (0.0, 0.0)

    def reset(self) -> None:
        """Forget history; the next sample is drawn from the stationary law."""
        self._last_time = None
        self._last_value = 0.0
        self._grid = None
        self._tile = (0.0, 0.0)

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
        its last index) it continues that call's tile instead, so any
        split of a grid into calls yields the same values bit for bit.
        The values come from NumPy tiles of ``T`` scans anchored at the
        multiples of ``T`` in the grid index (module docstring), ``T``
        chosen per ``rho`` so that no scale comes within 2**53 of
        overflow; they differ from the one-sample-at-a-time recurrence by
        a few ULPs.
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
        innovation = self._innovation_sigma(rho)
        tiles = noise_tiles(rho, innovation)
        if tiles is None:
            values = self._rng.generator.standard_normal(n)
            x0 = x_rho * self._last_value + values[0] * self._innovation_sigma(x_rho)
            values *= innovation
            values[0] = x0
        else:
            values = self._tiled(tiles, rho, innovation, first, n, x_rho, continues)
        self._last_time = last_time
        self._last_value = float(values[-1])
        return values

    def _tiled(
        self,
        tiles: NoiseTiles,
        rho: float,
        innovation: float,
        first: int,
        n: int,
        x_rho: float,
        continues: bool,
    ) -> np.ndarray:
        """Draw ``n`` normals and turn them into the AR(1) values.

        The first normal drives the transition from the carried state
        with coefficient ``x_rho``, unless the call continues mid-tile,
        where the carried tile takes it.  A call over at most
        :data:`SEGMENT_TILES` tiles is one 1-D segment; a longer one is
        the rows of a 2-D array.
        """
        size = tiles.scans
        k0 = first % size
        stop = k0 + n
        if stop <= SEGMENT_TILES * size:
            sums = None
            values = self._rng.generator.standard_normal(n)
        else:
            sums = np.zeros((-(-stop // size), size))
            values = sums.reshape(-1)[k0:stop]
            self._rng.generator.standard_normal(out=values)
        if continues and k0:
            b, prefix = self._tile
        else:
            x0 = x_rho * self._last_value + values[0] * self._innovation_sigma(x_rho)
            b, prefix = float(tiles.down[k0] * x0), None
        if sums is None:
            self._segment(tiles, rho, innovation, values, k0, b, prefix)
        else:
            self._rows(tiles, rho, innovation, sums, k0, stop, b, prefix)
        return values

    def _segment(
        self,
        tiles: NoiseTiles,
        rho: float,
        innovation: float,
        values: np.ndarray,
        k0: int,
        b: float,
        prefix: float | None,
    ) -> None:
        """Turn normals into values, in place, for scans ``k0..`` of a few tiles.

        ``b`` is ``rho**(h-k0)`` times the value at ``k0``, or the
        carried tile's when ``prefix``, its running sum, is given.
        """
        size, up, down, weights = tiles
        stop = k0 + values.size
        sums = values * weights[k0:stop]
        if prefix is None:
            sums[0] = 0.0
        else:
            sums[0] += prefix
        ends = [*range(size - k0, values.size, size), values.size]
        for lo, hi in zip([0, *ends], ends):
            if lo:
                # A tile starts from the previous one's last value.
                end = float(up[size - 1] * sums[lo - 1])
                b = float(down[0]) * (rho * end + float(values[lo]) * innovation)
            tile = sums[lo:hi]
            np.add.accumulate(tile, out=tile)
            self._tile = (b, float(tile[-1]))
            tile += b
        np.multiply(sums, up[k0:stop], out=values)

    def _rows(
        self,
        tiles: NoiseTiles,
        rho: float,
        innovation: float,
        sums: np.ndarray,
        k0: int,
        stop: int,
        b: float,
        prefix: float | None,
    ) -> None:
        """:meth:`_segment` over the rows of ``sums``, one tile each, in place.

        ``sums`` holds the normals at flat indices ``k0..stop-1`` and
        zeros around them.
        """
        size = tiles.scans
        up, down, weights = tiles.up[:size], tiles.down[:size], tiles.weights[:size]
        starts = sums[:, 0].tolist()
        sums *= weights
        if prefix is None:
            sums[0, k0] = 0.0
        else:
            sums[0, k0] += prefix
        np.add.accumulate(sums, axis=1, out=sums)
        sums[0, :k0] = -b  # padding: its values are zero, not overflowed
        last = sums[:, -1]
        bases = self._chain(float(up[-1]), float(down[0]), rho, innovation, b, starts, last)
        self._tile = (float(bases[-1]), float(sums.reshape(-1)[stop - 1]))
        sums += bases[:, None]
        sums *= up

    @staticmethod
    def _chain(
        up_end: float,
        down_start: float,
        rho: float,
        innovation: float,
        b: float,
        starts: list[float],
        last: np.ndarray,
    ) -> np.ndarray:
        """Each row's ``b``, from the first one's and the rows' last sums.

        A tile starts at rho times the previous tile's last value plus
        its own innovation.  Where every start is absorbed by its tile's
        last sum (b + Q == Q), no last value depends on its tile's start,
        so all starts follow at once; otherwise, and for a few tiles,
        they are chained one by one.
        """
        if len(starts) > CHAIN_LOOP_TILES:
            bases = np.empty(len(starts))
            bases[0] = b
            shocks = np.multiply(starts[1:], innovation)
            shocks += rho * (up_end * last[:-1])
            np.multiply(down_start, shocks, out=bases[1:])
            if (bases[:-1] + last[:-1] == last[:-1]).all():
                return bases
        bases = [b]
        for z, q in zip(starts[1:], last[:-1].tolist()):
            b = down_start * (rho * (up_end * (b + q)) + z * innovation)
            bases.append(b)
        return np.array(bases)
