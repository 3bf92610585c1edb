"""Realtime pump: the simulation analogue of the host receive thread.

The real host library runs a lightweight thread that continuously receives
sensor values.  Against the simulated device, :class:`RealtimeDriver`
plays that role for the interactive CLI tools: a daemon thread pumps the
PowerSensor at wall-clock pace (optionally time-scaled), so ``psrun`` and
``psinfo`` behave like their real counterparts.

The driver is also where a stuck measurement is detected: if the pump
thread raises, the error is captured and re-raised at the next
:meth:`read`/:meth:`mark`; if the thread blocks without making progress
for ``watchdog_seconds``, those calls raise
:class:`~repro.common.errors.StreamStalledError` instead of hanging, so a
wedged device fails the measurement cleanly rather than freezing the tool.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.common.errors import StreamStalledError
from repro.core.powersensor import PowerSensor
from repro.observability import MetricsRegistry

#: Pump-iteration latency buckets: 10 us to 1 s (nominal chunk is 20 ms).
PUMP_BUCKETS = (1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.5, 1.0)


class RealtimeDriver:
    """Pumps a PowerSensor from a background thread at wall-clock pace."""

    def __init__(
        self,
        ps: PowerSensor,
        time_scale: float = 1.0,
        chunk_seconds: float = 0.02,
        watchdog_seconds: float | None = 5.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive (or None)")
        self.ps = ps
        self.time_scale = time_scale
        self.chunk_seconds = chunk_seconds
        self.watchdog_seconds = watchdog_seconds
        self.registry: MetricsRegistry = getattr(
            ps, "registry", None
        ) or MetricsRegistry()
        self._pump_histogram = self.registry.histogram(
            "pump_loop_seconds",
            buckets=PUMP_BUCKETS,
            help="wall-clock latency of one realtime pump iteration",
        )
        self._behind_counter = self.registry.counter(
            "pump_loop_behind_total",
            help="pump iterations that missed their wall-clock deadline",
        )
        self._watchdog_counter = self.registry.counter(
            "watchdog_trips_total",
            help="times the realtime watchdog declared the stream stalled",
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # threading.Lock is not fair: a pump slower than its chunk would
        # retake the lock at once and starve read()/mark() for seconds.
        # Callers take a ticket before waiting for the lock, and the pump
        # thread lets every ticket issued so far be served before it pumps.
        self._turn = threading.Condition()
        self._tickets = 0
        self._served = 0
        self._error: BaseException | None = None
        self._last_progress = time.monotonic()

    def start(self) -> "RealtimeDriver":
        if self._thread is not None:
            raise RuntimeError("driver already started")
        self._last_progress = time.monotonic()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        next_deadline = time.monotonic()
        while not self._stop.is_set():
            with self._turn:
                waiting = self._tickets
                self._turn.wait_for(lambda: self._served >= waiting)
            iter_start = time.monotonic()
            try:
                with self._lock:
                    self.ps.pump_seconds(self.chunk_seconds * self.time_scale)
            except Exception as error:
                self._error = error
                return
            self._last_progress = time.monotonic()
            self._pump_histogram.observe(self._last_progress - iter_start)
            next_deadline += self.chunk_seconds
            delay = next_deadline - time.monotonic()
            if delay > 0:
                self._stop.wait(delay)
            else:
                self._behind_counter.inc()
                next_deadline = time.monotonic()  # fell behind; resync

    @property
    def failed(self) -> bool:
        """True if the pump thread died on an error."""
        return self._error is not None

    def _check_health(self) -> None:
        if self._error is not None:
            raise self._error
        if (
            self._thread is not None
            and self.watchdog_seconds is not None
            and time.monotonic() - self._last_progress > self.watchdog_seconds
        ):
            self.ps.health.stalls += 1
            self._watchdog_counter.inc()
            raise StreamStalledError(
                f"pump thread made no progress for {self.watchdog_seconds:.1f} s "
                f"(stalled device or blocked read)"
            )

    @contextlib.contextmanager
    def _locked(self):
        """Hold the stream lock, served ahead of the pump's next turn."""
        self._check_health()
        with self._turn:
            self._tickets += 1
        try:
            timeout = -1 if self.watchdog_seconds is None else self.watchdog_seconds
            if not self._lock.acquire(timeout=timeout):
                self.ps.health.stalls += 1
                self._watchdog_counter.inc()
                raise StreamStalledError(
                    f"pump thread held the stream lock for more than "
                    f"{self.watchdog_seconds:.1f} s"
                )
            try:
                yield
            finally:
                self._lock.release()
        finally:
            with self._turn:
                self._served += 1
                self._turn.notify_all()

    def read(self):
        """Thread-safe snapshot of the PowerSensor state."""
        with self._locked():
            return self.ps.read()

    def mark(self, char: str = "M") -> None:
        with self._locked():
            self.ps.mark(char)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "RealtimeDriver":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
