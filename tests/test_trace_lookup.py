"""Trace-backed rails: block-local lookup and single-pass GPU render.

``PowerTrace.hold_index`` searches only the slice of the trace a query
block spans, ``Gpu.render`` writes each point once, and a GPU feed
(``SplitRail``) runs its arithmetic once per trace point a block spans.
All must give exactly what the whole-trace, per-scan forms they replaced
gave, which are kept here as the reference oracles, down to the wire
bytes the firmware emits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MeasurementError
from repro.common.rng import RngStream
from repro.dut.base import PowerTrace, SplitRail, TraceRail
from repro.dut.gpu import GPU_CATALOG, Gpu, KernelLaunch
from repro.dut.jetson import JetsonAgxOrin
from repro.firmware.device import Firmware
from repro.hardware.baseboard import Baseboard
from repro.hardware.modules import SensorModule
from repro.vendor.base import trace_power_at


def reference_hold_index(trace: PowerTrace, times: np.ndarray) -> np.ndarray:
    """Sample-and-hold lookup over the whole trace."""
    idx = np.searchsorted(trace.times, times, side="right") - 1
    return np.clip(idx, 0, trace.times.size - 1)


class ReferenceTraceRail:
    """``TraceRail`` on the whole-trace lookup."""

    def __init__(self, trace: PowerTrace, offset: float = 0.0) -> None:
        self.trace = trace
        self.offset = float(offset)

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        times = start - self.offset + dt * np.arange(first, first + n)
        idx = reference_hold_index(self.trace, times)
        return self.trace.volts[idx].copy(), self.trace.amps[idx].copy()


class ReferenceSplitRail:
    """``SplitRail`` on the whole-trace lookup, with the feed arithmetic per scan."""

    def __init__(self, rail: SplitRail) -> None:
        self.rail = rail

    def sample_uniform(self, start: float, dt: float, n: int, first: int = 0):
        rail = self.rail
        times = start + dt * np.arange(first, first + n)
        watts = rail.trace.watts[reference_hold_index(rail.trace, times)] * rail.share
        volts = np.full(n, rail.nominal_volts)
        if rail.droop_ohms > 0.0:
            amps0 = watts / volts
            volts = volts - rail.droop_ohms * amps0
            volts = np.maximum(volts, 0.5 * rail.nominal_volts)
        return volts, watts / volts


def reference_render(gpu: Gpu, t_end: float, dt: float) -> PowerTrace:
    """``Gpu.render`` that masks and rewrites the rest of the trace per launch."""
    spec = gpu.spec
    times = np.arange(0.0, t_end + dt, dt)
    power = np.full(times.size, spec.idle_watts)
    for launch in sorted(gpu.launches, key=lambda k: k.start):
        mask = (times >= launch.start) & (times < launch.start + launch.duration)
        power[mask] = gpu._active_power(times[mask], launch)
        stop = launch.start + launch.duration
        tail = times >= stop
        steady = gpu._steady_power(launch)
        power[tail] = spec.idle_watts + (0.35 * (steady - spec.idle_watts)) * np.exp(
            -(times[tail] - stop) / spec.idle_return_tau_s
        )
    power = power + gpu.rng.normal(0.0, 0.15, size=power.shape)
    power = np.clip(power, 0.8 * spec.idle_watts, None)
    volts = np.full(times.size, 12.0)
    return PowerTrace(times=times, volts=volts, amps=power / volts)


# --------------------------------------------------------------------- #
# Lookup                                                                 #
# --------------------------------------------------------------------- #

# Dyadic grids make query times land exactly on trace times (and trace
# times repeat), so the "right"-side tie rule is exercised.
trace_times = st.lists(st.integers(-20, 20), min_size=1, max_size=60).map(
    lambda ks: np.array(sorted(ks), dtype=float) * 0.25
)
sorted_blocks = st.lists(st.integers(-60, 60), max_size=300).map(
    lambda ks: np.array(sorted(ks), dtype=float) * 0.125
)
block_sizes = st.sampled_from([0, 1, 2, 7, 500, 4000])
uniform_blocks = st.builds(
    lambda start, dt, n: start + dt * np.arange(n),
    st.floats(-12.0, 12.0),
    st.floats(1e-3, 0.5),
    block_sizes,
)


def make_trace(times: np.ndarray) -> PowerTrace:
    rng = np.random.default_rng(times.size)
    return PowerTrace(times, rng.uniform(1, 20, times.size), rng.uniform(0, 5, times.size))


@settings(max_examples=300, deadline=None)
@given(trace_times, st.one_of(sorted_blocks, uniform_blocks))
def test_hold_index_matches_whole_trace_lookup(times, queries):
    trace = make_trace(times)
    want = reference_hold_index(trace, queries)
    assert np.array_equal(trace.hold_index(queries), want)
    assert np.array_equal(trace_power_at(trace, queries), trace.watts[want])


@settings(max_examples=100, deadline=None)
@given(
    trace_times, st.floats(-12.0, 12.0), st.floats(0.0, 0.5), block_sizes, st.floats(-3.0, 3.0)
)
def test_trace_rail_matches_whole_trace_lookup(times, start, dt, n, offset):
    trace = make_trace(times)
    got = TraceRail(trace, offset).sample_uniform(start, dt, n)
    want = ReferenceTraceRail(trace, offset).sample_uniform(start, dt, n)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_hold_index_empty_and_single():
    trace = PowerTrace([0.0, 1.0, 1.0, 2.0], [1.0] * 4, [1.0, 2.0, 3.0, 4.0])
    assert trace.hold_index(np.array([])).size == 0
    for t in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 9.0):
        assert np.array_equal(trace.hold_index([t]), reference_hold_index(trace, [t]))


def test_hold_index_rejects_unordered_queries():
    trace = PowerTrace([0.0, 1.0], [1.0, 1.0], [1.0, 2.0])
    with pytest.raises(MeasurementError, match="non-decreasing"):
        trace.hold_index(np.array([0.5, 0.2]))
    with pytest.raises(MeasurementError, match="1-D"):
        trace.hold_index(np.zeros((2, 2)))


# --------------------------------------------------------------------- #
# Render                                                                 #
# --------------------------------------------------------------------- #


@st.composite
def schedules(draw, dt):
    """Kernel launches that overlap, nest, tie, start before 0 or after t_end."""
    launches = []
    for _ in range(draw(st.integers(0, 8))):
        earlier = [launch.start for launch in launches] or [0.0]
        start = st.one_of(
            st.integers(-300, 2500).map(lambda i: i * dt),  # on a trace point
            st.floats(-0.5, 2.5),
            st.sampled_from(earlier),  # a tie
        )
        duration = st.one_of(st.integers(1, 2000).map(lambda j: j * dt), st.floats(1e-6, 1.5))
        launches.append(
            KernelLaunch(
                start=draw(start),
                duration=draw(duration),
                utilization=draw(st.sampled_from([0.3, 0.8, 1.0])),
                clock_mhz=draw(st.sampled_from([None, 1200.0, 2600.0])),
                n_waves=draw(st.integers(1, 6)),
            )
        )
    return launches


@pytest.mark.parametrize("gpu_key", sorted(GPU_CATALOG))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), dt=st.sampled_from([1e-3, 5e-4, 2e-4]), seed=st.integers(0, 3))
def test_render_matches_mask_per_launch_reference(gpu_key, data, dt, seed):
    launches = data.draw(schedules(dt))
    gpu = Gpu(gpu_key, RngStream(seed, "render"))
    ref = Gpu(gpu_key, RngStream(seed, "render"))
    for launch in launches:
        gpu.launch(launch)
        ref.launch(launch)
    got, want = gpu.render(2.0, dt), reference_render(ref, 2.0, dt)
    for name in ("times", "volts", "amps"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# --------------------------------------------------------------------- #
# Wire bytes                                                             #
# --------------------------------------------------------------------- #

#: Blocks produced back to back; a marker precedes every second one.  The
#: 0.4-s traces below end inside the third block, so reads also clamp.
BLOCKS = (5, 2000, 8192, 3000)


def produce_blocks(modules: list[str], rails: list, seed: int) -> list[bytes]:
    board = Baseboard()
    for slot, (key, rail) in enumerate(zip(modules, rails)):
        board.attach(slot, SensorModule.manufacture(key, RngStream(seed, f"slot{slot}")))
        board.connect(slot, rail)
    firmware = Firmware(board)
    firmware.handle_input(b"S")
    blocks = []
    for k, n in enumerate(BLOCKS):
        if k % 2:
            firmware.handle_input(b"M")
        blocks.append(firmware.produce(n))
    return blocks


# dt=2e-4 gives traces coarser than the 8.3-us ADC scan (queries denser
# than trace points); dt=2e-6 gives the opposite.
@pytest.mark.parametrize("dt", [2e-4, 2e-6])
@pytest.mark.parametrize("seed", [0, 1])
def test_pcie_rails_produce_reference_bytes(seed, dt):
    modules = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3"]
    feeds = ["slot_12v", "ext_12v", "slot_3v3"]
    gpu = Gpu("rtx4000ada", RngStream(seed, "gpu"))
    for start, duration in ((0.02, 0.15), (0.1, 0.05), (0.25, 0.3)):
        gpu.launch(KernelLaunch(start=start, duration=duration, n_waves=3))
    rails = gpu.rails(gpu.render(0.4, dt))
    got = produce_blocks(modules, [rails[f] for f in feeds], seed)
    want = produce_blocks(modules, [ReferenceSplitRail(rails[f]) for f in feeds], seed)
    assert got == want


@pytest.mark.parametrize("dt", [2e-4, 2e-6])
@pytest.mark.parametrize("seed", [0, 1])
def test_jetson_usb_c_rail_produces_reference_bytes(seed, dt):
    jetson = JetsonAgxOrin(RngStream(seed, "jetson"))
    for start, duration in ((0.05, 0.2), (0.15, 0.1)):
        jetson.launch(KernelLaunch(start=start, duration=duration, n_waves=2))
    _, total = jetson.render(0.4, dt)
    got = produce_blocks(["usbc"], [jetson.usb_c_rail(total)], seed)
    want = produce_blocks(["usbc"], [ReferenceTraceRail(total)], seed)
    assert got == want
