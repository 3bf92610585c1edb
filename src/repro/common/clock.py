"""Virtual time base shared by the simulated device and its host.

The real PowerSensor3 runs against wall-clock time; the simulation instead
owns a :class:`VirtualClock` that only advances when the firmware produces
samples.  Experiments can therefore simulate hours of measurement in
milliseconds of host CPU time, while timestamp arithmetic (device
microsecond counters, marker timing, energy integration) stays exact.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing simulated clock.

    Time is kept as a float in seconds plus a monotonically increasing
    integer tick count so that callers needing exact sample indices do not
    accumulate float rounding.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._start = float(start)
        self._ticks = 0
        self._tick_period = 0.0
        self._offset = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.origin + self._ticks * self._tick_period

    @property
    def origin(self) -> float:
        """Time of tick 0; sample grids are laid out from here by index."""
        return self._start + self._offset

    @property
    def ticks(self) -> int:
        """Ticks since the origin."""
        return self._ticks

    def configure_ticks(self, period: float) -> None:
        """Set the tick period (seconds) used by :meth:`tick`.

        Reconfiguring folds the accumulated tick time into a fixed offset so
        that ``now`` never jumps backwards.
        """
        if period < 0:
            raise ValueError(f"tick period must be >= 0, got {period}")
        self._offset += self._ticks * self._tick_period
        self._ticks = 0
        self._tick_period = float(period)

    def tick(self, count: int = 1) -> float:
        """Advance by ``count`` ticks and return the new time."""
        if count < 0:
            raise ValueError(f"cannot tick backwards (count={count})")
        self._ticks += count
        return self.now

    def advance(self, seconds: float) -> float:
        """Advance by an arbitrary duration in seconds and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance backwards ({seconds} s)")
        self._offset += float(seconds)
        return self.now

    def micros(self) -> int:
        """Simulated microsecond counter (as the STM32 firmware reports it)."""
        return int(round(self.now * 1e6))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.9f})"
