"""Realtime driver: background pumping at wall-clock pace."""

import sys
import time

import pytest

from repro.core.realtime import RealtimeDriver
from repro.core.state import joules, seconds
from tests.conftest import make_loaded_setup


def test_driver_pumps_in_background():
    setup = make_loaded_setup(amps=4.0)
    with RealtimeDriver(setup.ps, chunk_seconds=0.01) as driver:
        before = driver.read()
        time.sleep(0.15)
        after = driver.read()
    assert seconds(before, after) > 0.05
    assert joules(before, after) > 0
    setup.close()


def test_time_scale_accelerates_simulation():
    setup = make_loaded_setup(amps=4.0)
    with RealtimeDriver(setup.ps, time_scale=10.0, chunk_seconds=0.01) as driver:
        time.sleep(0.12)
        state = driver.read()
    # ~0.12 s of wall time at 10x => >= ~0.5 s simulated (scheduling slack).
    assert state.time > 0.4
    setup.close()


def test_driver_mark_thread_safe():
    setup = make_loaded_setup()
    with RealtimeDriver(setup.ps, chunk_seconds=0.01) as driver:
        driver.mark("A")
        time.sleep(0.08)
    assert [c for _, c in setup.ps.marker_log] == ["A"]
    setup.close()


def test_double_start_rejected():
    setup = make_loaded_setup()
    driver = RealtimeDriver(setup.ps)
    driver.start()
    with pytest.raises(RuntimeError):
        driver.start()
    driver.stop()
    setup.close()


def test_stop_is_idempotent():
    setup = make_loaded_setup()
    driver = RealtimeDriver(setup.ps).start()
    driver.stop()
    driver.stop()
    setup.close()


def test_invalid_time_scale():
    setup = make_loaded_setup()
    with pytest.raises(ValueError):
        RealtimeDriver(setup.ps, time_scale=0.0)
    setup.close()


# --------------------------------------------------------------------- #
# Watchdog and pump-thread failure handling                             #
# --------------------------------------------------------------------- #

import threading

from repro.common.errors import StreamStalledError, TransportError
from repro.core.health import StreamHealth


class _FakePowerSensor:
    """Minimal PowerSensor stand-in with a controllable pump."""

    def __init__(self, pump):
        self._pump = pump
        self.health = StreamHealth()

    def pump_seconds(self, seconds):
        self._pump(seconds)

    def read(self):
        return "state"

    def mark(self, char="M"):
        pass


def test_pump_thread_error_surfaces_in_read():
    def pump(_seconds):
        raise TransportError("link is closed")

    driver = RealtimeDriver(_FakePowerSensor(pump), chunk_seconds=0.01)
    driver.start()
    time.sleep(0.05)
    assert driver.failed
    with pytest.raises(TransportError):
        driver.read()
    driver.stop()


def test_watchdog_detects_stalled_pump():
    release = threading.Event()

    def pump(_seconds):
        release.wait(2.0)  # a wedged blocking read

    driver = RealtimeDriver(
        _FakePowerSensor(pump), chunk_seconds=0.01, watchdog_seconds=0.05
    )
    driver.start()
    time.sleep(0.12)
    with pytest.raises(StreamStalledError):
        driver.read()
    assert driver.ps.health.stalls >= 1
    release.set()
    driver.stop()


def test_watchdog_quiet_on_healthy_stream():
    setup = make_loaded_setup(amps=4.0)
    with RealtimeDriver(setup.ps, chunk_seconds=0.01, watchdog_seconds=0.5) as driver:
        time.sleep(0.1)
        state = driver.read()  # must not trip
    assert state.time > 0
    assert not driver.failed
    setup.close()


def test_invalid_watchdog_rejected():
    setup = make_loaded_setup()
    with pytest.raises(ValueError):
        RealtimeDriver(setup.ps, watchdog_seconds=0.0)
    setup.close()


def test_pump_slower_than_its_chunk_does_not_starve_readers():
    # A CPU-bound pump that takes longer than its chunk resyncs and
    # pumps again at once; every read() must still be served within two
    # pump durations (one in flight, plus scheduling slack).
    busy = 0.03
    pumps = []

    def pump(_seconds):
        end = time.perf_counter() + busy
        while time.perf_counter() < end:
            pass
        pumps.append(None)

    worst = 0.0
    with RealtimeDriver(_FakePowerSensor(pump), chunk_seconds=0.02) as driver:
        for _ in range(40):
            start = time.perf_counter()
            driver.read()
            worst = max(worst, time.perf_counter() - start)
    assert worst <= 2 * busy, f"a read waited {worst:.3f} s for the stream lock"
    assert len(pumps) > 1  # readers did not starve the pump either


def test_concurrent_callers_and_pump_account_every_ticket():
    # More caller threads than cores, with frequent interpreter switches:
    # every read()/mark() is served exactly once, the pump keeps running,
    # and no ticket is lost between callers and the pump thread.
    marks = []
    pumps = []

    class _Recording(_FakePowerSensor):
        def mark(self, char="M"):
            marks.append(char)

    def pump(_seconds):
        time.sleep(0.001)
        pumps.append(None)

    def caller():
        for _ in range(50):
            driver.read()
            driver.mark("x")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        driver = RealtimeDriver(_Recording(pump), chunk_seconds=0.001).start()
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        driver.stop()
    finally:
        sys.setswitchinterval(previous)
    assert len(marks) == 200
    assert driver._tickets == driver._served == 400
    assert pumps
