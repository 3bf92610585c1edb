"""The asyncio broadcast-ring server core and its bug-sweep regressions.

Covers the ring/cursor primitives with their exact drop-accounting
semantics, and the four bug regressions: dry-reference pacing, the
hardcoded handshake deadline, the client-thread/socket leak, and
double-counted drops.  The 256-subscriber fan-out tests are gated behind
``PS_SCALING=1`` (they run in the CI server-smoke job).
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.common.errors import ServerError, TransportError
from repro.common.retry import RecoveryPolicy
from repro.core.replay import ReplaySampleSource
from repro.firmware.commands import Command
from repro.server import (
    BroadcastRing,
    FrameDecoder,
    FrameType,
    PowerSensorServer,
    RemoteLink,
    RingCursor,
    encode_frame,
)
from repro.server.client import CONNECT_BACKOFF
from repro.server.loadgen import run_swarm
from repro.server.wire import encode_control
from tests.conftest import make_loaded_setup
from tests.test_fleet import record_tape

scaling = pytest.mark.skipif(
    not os.environ.get("PS_SCALING"),
    reason="256-subscriber fan-out test; set PS_SCALING=1 to run",
)


@contextmanager
def served_daemon(
    tmp_path,
    *,
    duration=0.2,
    wait_clients=1,
    policy="block",
    chunk=400,
    buffer_frames=256,
    max_clients=64,
    client_timeout=5.0,
    time_scale=0.0,
):
    """Like test_server.served, with the ring and timeout knobs exposed."""
    setup = make_loaded_setup(amps=8.0, direct=False, calibration_samples=1024)
    setup.source.start()
    server = PowerSensorServer(
        setup.source,
        f"unix:{tmp_path / 'engine.sock'}",
        policy=policy,
        chunk=chunk,
        wait_clients=wait_clients,
        max_clients=max_clients,
        buffer_frames=buffer_frames,
        client_timeout=client_timeout,
        time_scale=time_scale,
    )
    server.start()
    pump = threading.Thread(target=lambda: server.serve(duration), daemon=True)
    pump.start()
    try:
        yield server
    finally:
        server.close()
        pump.join(timeout=15)
        setup.close()


def encoded_frames(server, device="device0") -> int:
    return int(server.registry.value("server_frames_encoded_total", device=device))


# --------------------------------------------------------------------- #
# BroadcastRing / RingCursor primitives                                 #
# --------------------------------------------------------------------- #


def test_ring_append_evicts_past_capacity():
    ring = BroadcastRing(capacity=3)
    for i in range(5):
        assert ring.append(f"f{i}".encode(), samples=10 + i) == i
    assert ring.head == 5 and ring.tail == 2
    assert ring.occupancy == 3 and len(ring) == 3
    assert ring.encodes == 5
    assert ring.samples_appended == sum(range(10, 15))
    assert ring.samples_evicted == 10 + 11
    assert ring.entry(2) == (b"f2", 12)
    with pytest.raises(IndexError):
        ring.entry(1)  # evicted
    with pytest.raises(IndexError):
        ring.entry(5)  # not yet appended


def test_cursor_consumes_in_order_without_loss():
    ring = BroadcastRing(capacity=8)
    cursor = RingCursor(ring, policy="block")
    for i in range(5):
        ring.append(f"f{i}".encode(), samples=1)
    assert cursor.lag == 5
    taken = cursor.take()
    assert [f for f, _ in taken] == [b"f0", b"f1", b"f2", b"f3", b"f4"]
    assert cursor.taken_frames == 5 and cursor.taken_samples == 5
    assert cursor.dropped == 0 and cursor.lag == 0
    assert cursor.take() == []


def test_cursor_take_respects_limit():
    ring = BroadcastRing(capacity=16)
    cursor = RingCursor(ring)
    for i in range(10):
        ring.append(b"x", samples=2)
    assert len(cursor.take(limit=4)) == 4
    assert cursor.lag == 6
    assert len(cursor.take()) == 6


def test_cursor_gap_accounting_when_lapped():
    ring = BroadcastRing(capacity=4)
    cursor = RingCursor(ring, policy="drop-oldest")
    for i in range(10):
        ring.append(f"f{i}".encode(), samples=100 + i)
    # Frames 0..5 were evicted before the cursor consumed them.
    taken = cursor.take()
    assert [f for f, _ in taken] == [b"f6", b"f7", b"f8", b"f9"]
    assert cursor.lost_frames == 6
    assert cursor.lost_samples == sum(100 + i for i in range(6))
    assert cursor.dropped == 6  # exactly one count per lost frame
    # Losses never double-count on subsequent takes.
    assert cursor.take() == []
    assert cursor.lost_frames == 6


def test_cursor_overrun_flags_block_pressure():
    ring = BroadcastRing(capacity=2)
    cursor = RingCursor(ring, policy="block")
    ring.append(b"a", 1)
    assert not cursor.overrun()
    ring.append(b"b", 1)
    assert cursor.overrun()  # next append would evict frame the cursor needs
    cursor.take(limit=1)
    assert not cursor.overrun()


def test_cursor_downsample_skips_alternate_frames_under_pressure():
    ring = BroadcastRing(capacity=8)
    cursor = RingCursor(ring, policy="downsample")
    for i in range(8):
        ring.append(f"f{i}".encode(), samples=1)
    cursor.take()
    assert cursor.skipped_frames > 0
    assert cursor.taken_frames + cursor.skipped_frames == 8
    assert cursor.dropped == cursor.skipped_frames
    # Once caught up (lag below half the ring) frames pass unthinned.
    ring.append(b"calm", 1)
    assert [f for f, _ in cursor.take()] == [b"calm"]


def test_cursor_rebase_joins_live_edge_without_loss():
    ring = BroadcastRing(capacity=4)
    cursor = RingCursor(ring, policy="drop-oldest")
    for i in range(10):
        ring.append(b"old", 1)
    cursor.rebase()
    assert cursor.lag == 0 and cursor.dropped == 0
    ring.append(b"new", 1)
    assert [f for f, _ in cursor.take()] == [b"new"]
    assert cursor.dropped == 0


# --------------------------------------------------------------------- #
# Bugfix regression: dry-reference pacing busy-spin                     #
# --------------------------------------------------------------------- #


def test_pacing_survives_replay_tape_exhaustion(tmp_path):
    """A dried finite tape must not freeze the pacing clock.

    The tape replays at 8x, making it the fastest device — the pacing
    reference the buggy code pinned.  It runs dry within the first pump
    rounds; pacing must then re-elect the live simulated device instead
    of pumping it unpaced at 100% CPU.
    """
    tape_file = tmp_path / "tape.psdump"
    record_tape(tape_file, n=1600, seed=3)
    setup = make_loaded_setup(amps=8.0, direct=False, seed=1, calibration_samples=1024)
    setup.source.start()
    tape = ReplaySampleSource(tape_file, speed=8.0)
    assert tape.sample_rate > setup.source.sample_rate
    server = PowerSensorServer(
        {"sim": setup.source, "tape": tape},
        f"unix:{tmp_path / 'pace.sock'}",
        time_scale=1.0,
    )
    server.start()
    sim_duration = 0.25
    try:
        t0 = time.monotonic()
        stats = server.serve(duration=sim_duration)
        elapsed = time.monotonic() - t0
    finally:
        server.close()
        tape.close()
        setup.close()
    # The tape ran dry well before the requested duration...
    assert stats["devices"]["tape"] < sim_duration * tape.sample_rate
    # ...while the simulated device was pumped to completion...
    assert stats["devices"]["sim"] == round(sim_duration * setup.source.sample_rate)
    # ...at wall-clock pace (the bug finished in a few milliseconds).
    assert elapsed >= 0.6 * sim_duration


def test_a_paced_pump_behind_schedule_still_feeds_its_writers(tmp_path):
    """A pump behind its wall-clock schedule never sleeps, so it must yield.

    At a tiny time scale every pacing delay is negative.  A pump that
    yielded to the writers only by sleeping encoded all 50 frames before
    a writer ran, and the 8-frame drop-oldest ring lapped the cursor.
    """
    with served_daemon(
        tmp_path, duration=1.0, policy="drop-oldest", buffer_frames=8, time_scale=1e-9
    ) as server:
        swarm = run_swarm(server.address, 1, timeout=60.0)
    (client,) = swarm.clients
    assert encoded_frames(server) == 50
    assert client.eos is not None and client.eos["frames_dropped"] == 0
    assert client.frames == 50


# --------------------------------------------------------------------- #
# Bugfix regression: handshake deadline follows the recovery policy     #
# --------------------------------------------------------------------- #


def test_handshake_timeout_derives_from_recovery_policy(tmp_path):
    with served_daemon(tmp_path, duration=0.05) as server:
        policy = RecoveryPolicy(max_retries=3, backoff_factor=2.0, max_retry_seconds=0.1)
        link = RemoteLink(server.address, recovery=policy, connect_timeout=2.0)
        expected = 2.0 + sum(policy.backoff_delays(CONNECT_BACKOFF))
        assert link.handshake_timeout == pytest.approx(expected)
        link.close()
        bare = RemoteLink(server.address, recovery=None, connect_timeout=1.25)
        assert bare.handshake_timeout == pytest.approx(1.25)
        bare.close()
        explicit = RemoteLink(server.address, handshake_timeout=7.5)
        assert explicit.handshake_timeout == pytest.approx(7.5)
        explicit.close()


class _StallingStream:
    """A stream that never produces a HELLO frame (only framing noise)."""

    def __init__(self):
        self.closed = False

    def read(self, n=None):
        time.sleep(0.02)
        return b"\x00" * 64

    def write(self, data):
        pass

    def close(self):
        self.closed = True


def test_handshake_deadline_exhaustion_respects_configured_budget():
    stream = _StallingStream()
    t0 = time.monotonic()
    with pytest.raises(ServerError, match="handshake timed out"):
        RemoteLink(
            "unix:/nonexistent.sock",
            recovery=None,
            handshake_timeout=0.2,
            stream_factory=lambda spec: stream,
        )
    elapsed = time.monotonic() - t0
    # Before the fix this took the hardcoded 30 s regardless of config.
    assert elapsed < 5.0
    assert stream.closed


def test_handshake_succeeds_after_connect_retries(tmp_path):
    from repro.server.client import connect_stream

    with served_daemon(tmp_path, duration=0.05) as server:
        attempts = {"n": 0}

        def flaky_factory(spec):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransportError("transient connect failure")
            return connect_stream(spec)

        link = RemoteLink(server.address, stream_factory=flaky_factory)
        assert attempts["n"] == 3
        assert link.hello.get("server") == "psserve"
        link.close()


# --------------------------------------------------------------------- #
# Bugfix regression: no thread/socket leak on client churn              #
# --------------------------------------------------------------------- #


def _expect_type(sock, decoder, ftype, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        data = sock.recv(65536)
        if not data:
            raise AssertionError(f"connection closed awaiting {ftype!r}")
        for frame in decoder.feed(data):
            if frame.type == ftype:
                return frame
    raise AssertionError(f"no {ftype!r} frame within {deadline}s")


def test_client_churn_leaves_no_thread_or_socket_leak(tmp_path):
    """100 connect/kill cycles; registrations and threads return to baseline."""
    setup = make_loaded_setup(amps=8.0, direct=False, seed=5, calibration_samples=1024)
    setup.source.start()
    sock_path = str(tmp_path / "churn.sock")
    server = PowerSensorServer(
        setup.source,
        f"unix:{sock_path}",
        policy="block",
        client_timeout=2.0,
        max_clients=32,
        time_scale=1.0,
    )
    server.start()
    pump = threading.Thread(target=lambda: server.serve(None), daemon=True)
    pump.start()
    try:
        time.sleep(0.1)
        baseline = threading.active_count()
        for i in range(100):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(10.0)
            s.connect(sock_path)
            decoder = FrameDecoder()
            _expect_type(s, decoder, FrameType.HELLO)
            s.sendall(encode_control(FrameType.SUBSCRIBE, 0, {"mode": "raw"}))
            _expect_type(s, decoder, FrameType.SUBACK)
            if i % 2:
                # Half the clients die mid-stream, not just mid-idle.
                s.sendall(encode_frame(FrameType.START, 0))
            if i % 3 == 0:
                s.sendall(encode_frame(FrameType.BYE, 0))
            s.close()  # abrupt for the non-BYE cases
        end = time.monotonic() + 20.0
        while time.monotonic() < end:
            if (
                server.registry.value("server_clients_connected") == 0
                and threading.active_count() <= baseline
            ):
                break
            time.sleep(0.05)
        assert server.registry.value("server_clients_connected") == 0
        assert threading.active_count() <= baseline
        assert server.registry.value("server_clients_total") == 100
    finally:
        server.close()
        pump.join(timeout=15)
        setup.close()


def test_wait_clients_rendezvous_survives_a_crashed_starter(tmp_path):
    """A subscriber that STARTs and dies still counts toward wait_clients.

    Before the fix the rendezvous counted *live* started clients, so one
    subscriber crashing between START and the pump kick-off deadlocked
    the server forever (the survivors then never saw a single frame).
    """
    sock_path = str(tmp_path / "engine.sock")
    with served_daemon(tmp_path, duration=0.1, wait_clients=2) as server:
        # Client A: full handshake, START, then die abruptly.
        a = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        a.settimeout(10.0)
        a.connect(sock_path)
        dec_a = FrameDecoder()
        _expect_type(a, dec_a, FrameType.HELLO)
        a.sendall(encode_control(FrameType.SUBSCRIBE, 0, {"mode": "raw"}))
        _expect_type(a, dec_a, FrameType.SUBACK)
        a.sendall(encode_frame(FrameType.START, 0))
        a.close()

        # Client B: starts second and must still reach EOS.
        b = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        b.settimeout(10.0)
        b.connect(sock_path)
        dec_b = FrameDecoder()
        _expect_type(b, dec_b, FrameType.HELLO)
        b.sendall(encode_control(FrameType.SUBSCRIBE, 0, {"mode": "raw"}))
        _expect_type(b, dec_b, FrameType.SUBACK)
        b.sendall(encode_frame(FrameType.START, 0))
        data_frames = 0
        eos = None
        end = time.monotonic() + 10.0
        while eos is None and time.monotonic() < end:
            data = b.recv(65536)
            if not data:
                break
            for frame in dec_b.feed(data):
                if frame.type == FrameType.DATA:
                    data_frames += 1
                elif frame.type == FrameType.EOS:
                    eos = frame.json()
        b.close()
        assert eos is not None, "pump deadlocked on the dead starter"
        assert data_frames > 0
        assert server.registry.value("server_clients_total") == 2


# --------------------------------------------------------------------- #
# Fan-out: encode-once and gap accounting (small, always-on)            #
# --------------------------------------------------------------------- #


def test_fanout_encodes_each_frame_exactly_once(tmp_path):
    n_clients = 16
    with served_daemon(
        tmp_path,
        duration=0.2,
        wait_clients=n_clients,
        max_clients=n_clients + 4,
    ) as server:
        swarm = run_swarm(server.address, n_clients, timeout=60.0)
    assert len(swarm.completed) == n_clients
    encodes = encoded_frames(server)
    assert encodes == 10  # 0.2 s at chunk=400 over a 20 kHz stream
    for client in swarm.clients:
        assert client.seq_gaps == 0
        assert client.first_seq == 1
        assert client.frames == encodes
    # N clients saw N*encodes frames while only `encodes` were encoded.
    assert swarm.total_frames == n_clients * encodes


def test_drop_oldest_cursor_gap_accounting_stays_truthful(tmp_path):
    """Stalled readers lose frames; every loss is accounted exactly once.

    The stream (300 frames, ~720 KB) must outgrow the kernel-socket +
    transport write slack so a stalled subscriber's cursor is really
    lapped; losses are then guaranteed, not timing-dependent.
    """
    n_clients = 4
    with served_daemon(
        tmp_path,
        duration=6.0,
        wait_clients=n_clients,
        policy="drop-oldest",
        buffer_frames=4,
        client_timeout=30.0,
    ) as server:
        swarm = run_swarm(
            server.address,
            n_clients,
            stall=3.0,
            slow_fraction=0.5,
            timeout=120.0,
        )
    assert len(swarm.completed) == n_clients
    encodes = encoded_frames(server)
    total_lost = 0
    for client in swarm.clients:
        eos = client.eos
        assert eos is not None
        # Server-side: sent + dropped covers every encoded frame.
        assert eos["frames_sent"] + eos["frames_dropped"] == encodes
        # Client-side: received + observed gaps + pre-first-frame hole
        # reconciles to the same total — remote loss stays truthful.
        lost = client.seq_gaps + (client.first_seq - 1)
        assert client.frames + lost == encodes
        assert eos["frames_dropped"] == lost
        assert client.frames == eos["frames_sent"]
        total_lost += lost
    assert total_lost > 0  # the slow readers really were pressured
    # The per-client drop metric (kind=evicted) mirrors the cursors.
    snapshot = server.registry.snapshot()
    evicted = sum(
        m.get("value", 0)
        for m in snapshot["metrics"]
        if m["name"] == "server_frames_dropped_total"
        and m.get("labels", {}).get("kind") == "evicted"
    )
    assert evicted == total_lost


# --------------------------------------------------------------------- #
# Handshake, window-fold and EOS-accounting regressions                 #
# --------------------------------------------------------------------- #


class _ScriptedReader:
    """A duck-typed StreamReader fed from a fixed list of byte chunks."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    async def read(self, n):
        return self.chunks.pop(0) if self.chunks else b""


class _FailingDrainWriter:
    """A duck-typed StreamWriter that survives the HELLO drain, then dies."""

    def __init__(self, fail_on_drain=2):
        self.drains = 0
        self.fail_on_drain = fail_on_drain
        self.closed = False

    def write(self, data):
        pass

    async def drain(self):
        self.drains += 1
        if self.drains >= self.fail_on_drain:
            raise ConnectionResetError("peer vanished during SUBACK drain")

    def close(self):
        self.closed = True


def test_aborted_handshake_releases_registered_slot(tmp_path):
    """A handshake that dies after registration must not leak the slot.

    The SUBACK drain can fail (peer gone) or be cancelled by the
    handshake timeout *after* the client is registered.  Before the fix
    the slot, connected gauge and ring cursor leaked until the next
    finish, so repeated aborted handshakes read "server full".
    """
    setup = make_loaded_setup(amps=8.0, direct=False, seed=9, calibration_samples=1024)
    setup.source.start()
    server = PowerSensorServer(setup.source, f"unix:{tmp_path / 'abort.sock'}")
    server.start()
    try:
        reader = _ScriptedReader(
            [encode_control(FrameType.SUBSCRIBE, 0, {"mode": "raw"})]
        )
        writer = _FailingDrainWriter()
        future = asyncio.run_coroutine_threadsafe(
            server._handshake(reader, writer), server._loop
        )
        with pytest.raises(ConnectionResetError):
            future.result(timeout=10)
        assert server._clients == {}
        assert server.registry.value("server_clients_connected") == 0
        assert writer.closed
    finally:
        server.close()
        setup.close()


def test_pipelined_start_split_across_subscribe_read_survives(tmp_path):
    """Partial control bytes buffered during the handshake carry over.

    A client may pipeline START right behind SUBSCRIBE; when the frame
    straddles the server's read boundary the leftover bytes sit in the
    handshake decoder.  Before the fix the server switched to a fresh
    per-client decoder and silently dropped them — the client never
    started.
    """
    sock_path = str(tmp_path / "engine.sock")
    with served_daemon(tmp_path, duration=0.05):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(10.0)
        s.connect(sock_path)
        decoder = FrameDecoder()
        _expect_type(s, decoder, FrameType.HELLO)
        start = encode_frame(FrameType.START, 0)
        s.sendall(
            encode_control(FrameType.SUBSCRIBE, 0, {"mode": "raw"})
            + start[: len(start) // 2]
        )
        _expect_type(s, decoder, FrameType.SUBACK)
        s.sendall(start[len(start) // 2 :])
        data_frames = 0
        eos = None
        end = time.monotonic() + 10.0
        while eos is None and time.monotonic() < end:
            data = s.recv(65536)
            if not data:
                break
            for frame in decoder.feed(data):
                if frame.type == FrameType.DATA:
                    data_frames += 1
                elif frame.type == FrameType.EOS:
                    eos = frame.json()
        s.close()
    assert eos is not None, "pipelined START was dropped at the decoder switch"
    assert data_frames > 0


def test_window_accumulator_resets_after_last_subscriber_leaves(tmp_path):
    """The shared window fold must not straddle a subscriber-less gap.

    Chunk 400 with window 7 leaves a partial fold every tick; when the
    last subscriber goes away that leftover must be discarded, so a
    future subscriber's first WINDOW never averages samples from both
    sides of an arbitrarily long gap.
    """
    with served_daemon(tmp_path, duration=30.0, time_scale=1.0) as server:
        link = RemoteLink(server.address, mode="window", window=7, recovery=None)
        link.write(Command.START_STREAMING.value)
        for _ in range(3):
            assert link.next_data() is not None
        stream = server.devices["device0"].window_streams[7]
        link.close()
        end = time.monotonic() + 10.0
        while time.monotonic() < end:
            if server.registry.value("server_clients_connected") == 0:
                break
            time.sleep(0.02)
        assert server.registry.value("server_clients_connected") == 0
        assert stream.acc_count == 0 and stream.acc == []


def test_downsample_eos_reports_delivered_not_pending(tmp_path):
    """EOS stats under downsample count what actually went out.

    Before the fix the EOS was built at finish time from taken+pending
    cursor counts; frames the downsample policy then skipped were
    counted as both sent and dropped, so ``frames_sent`` could exceed
    what the subscriber ever received.
    """
    n_clients = 4
    with served_daemon(
        tmp_path,
        duration=6.0,
        wait_clients=n_clients,
        policy="downsample",
        buffer_frames=8,
        client_timeout=30.0,
    ) as server:
        swarm = run_swarm(
            server.address,
            n_clients,
            stall=3.0,
            slow_fraction=0.5,
            timeout=120.0,
        )
    assert len(swarm.completed) == n_clients
    encodes = encoded_frames(server)
    for client in swarm.clients:
        eos = client.eos
        assert eos is not None
        # The EOS claim matches exactly what the subscriber received.
        assert client.frames == eos["frames_sent"]
        # Sent + dropped (evicted + skipped) still covers every frame...
        assert eos["frames_sent"] + eos["frames_dropped"] == encodes
        # ...and the drop count reconciles with the client-side gaps.
        lost = client.seq_gaps + (client.first_seq - 1)
        assert eos["frames_dropped"] == lost
    assert swarm.eos_total("frames_dropped") > 0  # the stall really pressured


# --------------------------------------------------------------------- #
# 256-subscriber scaling tests (CI server-smoke job; PS_SCALING=1)      #
# --------------------------------------------------------------------- #


@pytest.mark.scaling
@scaling
def test_scaling_256_subscribers_block_is_lossless(tmp_path):
    n_clients = 256
    with served_daemon(
        tmp_path,
        duration=0.5,
        wait_clients=n_clients,
        policy="block",
        max_clients=n_clients + 8,
        client_timeout=30.0,
    ) as server:
        swarm = run_swarm(
            server.address, n_clients, connect_concurrency=128, timeout=300.0
        )
    assert len(swarm.completed) == n_clients
    encodes = encoded_frames(server)
    assert encodes > 0
    for client in swarm.clients:
        assert client.first_seq == 1
        assert client.seq_gaps == 0
        assert client.frames == encodes
        assert client.eos is not None and client.eos["frames_dropped"] == 0
    assert swarm.total_frames == n_clients * encodes
    assert server.registry.value("server_clients_evicted_total") == 0


@pytest.mark.scaling
@scaling
def test_scaling_256_subscribers_drop_oldest_gap_accounting(tmp_path):
    n_clients = 256
    with served_daemon(
        tmp_path,
        duration=6.0,
        wait_clients=n_clients,
        policy="drop-oldest",
        buffer_frames=8,
        max_clients=n_clients + 8,
        client_timeout=30.0,
    ) as server:
        swarm = run_swarm(
            server.address,
            n_clients,
            connect_concurrency=128,
            stall=10.0,
            slow_fraction=0.25,
            timeout=300.0,
        )
    assert len(swarm.completed) == n_clients
    encodes = encoded_frames(server)
    total_lost = 0
    for client in swarm.clients:
        eos = client.eos
        assert eos is not None
        assert eos["frames_sent"] + eos["frames_dropped"] == encodes
        lost = client.seq_gaps + (client.first_seq - 1)
        assert client.frames + lost == encodes
        assert eos["frames_dropped"] == lost
        total_lost += lost
    assert total_lost > 0
