"""Outputs depend on seeds only, never on how the stream is read.

Device simulation lays every scan time out by integer index from the
stream origin, and each sensor's noise draws exactly one normal per
scan.  So any split of a stream into reads gives the same wire bytes and
the same decoded samples, and psserve relays the same DATA payloads
whatever its ``pump_batch``.  The bench here has the hard cases: a GPU
trace at 2e-4 s, whose points fall exactly on slot 0's 8.33 us scan grid
every 24 scans (a one-ULP shift in a scan time flips the sample-and-hold
lookup), and a lab load stepping in a square wave.  A module's stream
does not depend on the other slots either: calibration measures one
module at a time.
"""

from __future__ import annotations

import socket
import threading
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RngStream
from repro.core.setup import SimulatedSetup
from repro.dut.gpu import Gpu, KernelLaunch
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.server import FrameDecoder, FrameType, PowerSensorServer, encode_frame
from repro.server.wire import encode_control
from tests.conftest import make_loaded_setup

MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]
FEEDS = ["slot_12v", "ext_12v", "slot_3v3"]
N = 6000
#: Stream positions of the markers; every split is cut there too, since a
#: marker can only be issued between reads.
MARKS = (1500, 4001)


@lru_cache(maxsize=1)
def rails():
    gpu = Gpu("rtx4000ada", RngStream(0, "gpu"))
    for start, duration in ((0.02, 0.1), (0.15, 0.08)):
        gpu.launch(KernelLaunch(start=start, duration=duration, n_waves=3))
    feeds = gpu.rails(gpu.render(0.4, 2e-4))
    load = ElectronicLoad()
    load.program_square(1.0, 4.0, 100.0, start=0.01, cycles=20)
    return [feeds[feed] for feed in FEEDS] + [LoadedSupplyRail(LabSupply(20.0), load)]


def read_stream(cuts, direct):
    """Read N samples split at ``cuts`` (plus MARKS), marking at MARKS."""
    setup = SimulatedSetup(MODULES, seed=3, direct=direct, calibrate=False)
    for slot, rail in enumerate(rails()):
        setup.connect(slot, rail)
    source = setup.source
    source.start()
    edges = sorted({0, N, *cuts, *MARKS})
    raws, blocks = [], []
    for lo, hi in zip(edges, edges[1:]):
        if lo in MARKS:
            source.mark()
        if direct:
            blocks.append(source.read_block(hi - lo))
        else:
            block, raw = source.read_block_raw(hi - lo)
            blocks.append(block)
            raws.append(raw)
    setup.close()
    markers = np.concatenate([b.markers for b in blocks])
    assert list(np.flatnonzero(markers)) == list(MARKS)
    return (
        b"".join(raws),
        np.concatenate([b.times for b in blocks]).tobytes(),
        np.concatenate([b.values for b in blocks]).tobytes(),
        markers.tobytes(),
    )


@lru_cache(maxsize=2)
def unsplit(direct):
    return read_stream((), direct)


@settings(max_examples=25, deadline=None)
@given(
    cuts=st.lists(st.integers(min_value=1, max_value=N - 1), max_size=12),
    direct=st.booleans(),
)
def test_any_split_of_the_stream_gives_identical_output(cuts, direct):
    assert read_stream(cuts, direct) == unsplit(direct)


# --------------------------------------------------------------------- #
# Slot isolation                                                        #
# --------------------------------------------------------------------- #


@lru_cache(maxsize=8)
def slot0_stream(others, direct):
    """Slot 0's calibrated stream (a USB-C module on the 20 V square-wave
    load), with ``others`` installed in slots 1-3."""
    setup = SimulatedSetup(
        ["usbc", *others], seed=0, direct=direct, calibration_samples=4096
    )
    setup.connect(0, rails()[3])
    setup.source.start()
    block = setup.source.read_block(2000)
    setup.close()
    return block.times.tobytes(), block.values[:, :2].tobytes()


@settings(max_examples=10, deadline=None)
@given(
    others=st.tuples(*[st.sampled_from([None, *MODULES])] * 3),
    direct=st.booleans(),
)
def test_a_modules_stream_does_not_depend_on_the_other_slots(others, direct):
    assert slot0_stream(others, direct) == slot0_stream((), direct)


# --------------------------------------------------------------------- #
# psserve                                                               #
# --------------------------------------------------------------------- #


def served_payloads(tmp_path, pump_batch):
    """Every raw DATA payload one subscriber receives from psserve."""
    setup = make_loaded_setup(amps=8.0, direct=False, seed=4, calibration_samples=1024)
    setup.source.start()
    path = str(tmp_path / f"batch{pump_batch}.sock")
    server = PowerSensorServer(
        setup.source,
        f"unix:{path}",
        policy="block",
        chunk=400,
        pump_batch=pump_batch,
        wait_clients=1,
        time_scale=0.0,
    )
    server.start()
    pump = threading.Thread(target=lambda: server.serve(0.2), daemon=True)
    pump.start()
    payloads = []
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            sock.sendall(encode_control(FrameType.SUBSCRIBE, 0, {"mode": "raw"}))
            sock.sendall(encode_frame(FrameType.START, 0))
            decoder = FrameDecoder()
            done = False
            while not done:
                data = sock.recv(65536)
                assert data, "connection closed before end of stream"
                for frame in decoder.feed(data):
                    if frame.type == FrameType.DATA:
                        payloads.append(frame.payload)
                    done = done or frame.type == FrameType.EOS
    finally:
        server.close()
        pump.join(timeout=15)
        setup.close()
    return payloads


def test_psserve_relays_the_same_payloads_at_any_pump_batch(tmp_path):
    one = served_payloads(tmp_path, pump_batch=1)
    assert len(one) == 10  # 0.2 s in 400-sample chunks
    assert served_payloads(tmp_path, pump_batch=5) == one
